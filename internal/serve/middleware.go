package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"muve/internal/obs"
	"muve/internal/resilience"
)

// ctxKey is the private context-key namespace of this package.
type ctxKey int

const requestIDKey ctxKey = iota

// reqSeq numbers requests within this process.
var reqSeq atomic.Uint64

// RequestID returns the request's ID, or "" outside WithLogging.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// statusWriter captures the status code and body size for the log line.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// per-request deadline and flush control keep working behind the
// middleware stack.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// flushingStatusWriter adds Flush to a statusWriter. It is a separate
// type, used only when the underlying writer implements http.Flusher,
// so a downstream `w.(http.Flusher)` type assertion reports exactly
// what the connection can actually do: wrapping unconditionally would
// hide Flusher on real connections (silently breaking streaming
// handlers), while advertising it unconditionally would lie over
// writers that cannot flush.
type flushingStatusWriter struct{ *statusWriter }

// Flush forwards to the underlying writer. Flushing headers before any
// body write commits status 200, mirroring net/http's own semantics,
// so the log line records what went on the wire.
func (w flushingStatusWriter) Flush() {
	if w.statusWriter.status == 0 {
		w.statusWriter.status = http.StatusOK
	}
	w.statusWriter.ResponseWriter.(http.Flusher).Flush()
}

// instrument wraps w for status/size capture, preserving its Flusher
// capability when present.
func instrument(w http.ResponseWriter) (http.ResponseWriter, *statusWriter) {
	sw := &statusWriter{ResponseWriter: w}
	if _, ok := w.(http.Flusher); ok {
		return flushingStatusWriter{sw}, sw
	}
	return sw, sw
}

// WithLogging wraps next with per-request structured logging: it
// assigns each request an ID (echoed in the X-Request-Id response
// header and available via RequestID), and logs method, path, status,
// response size and latency on completion. A nil logger uses the
// standard logger.
func WithLogging(logger *log.Logger, next http.Handler) http.Handler {
	if logger == nil {
		logger = log.Default()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := fmt.Sprintf("%08x-%04x", uint32(start.UnixNano()), reqSeq.Add(1)&0xffff)
		w.Header().Set("X-Request-Id", id)
		rw, sw := instrument(w)
		next.ServeHTTP(rw, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		logger.Printf("req %s %s %s -> %d %dB %s",
			id, r.Method, r.URL.RequestURI(), status, sw.bytes, time.Since(start).Round(10*time.Microsecond))
	})
}

// WithRecovery wraps next so a panic in a handler is contained: it is
// logged with the request ID and stack, counted in muve_panics_total,
// and turned into a 500 (when no bytes have been written yet) instead
// of killing the connection's goroutine silently. A nil logger uses the
// standard logger; a nil metrics skips counting.
func WithRecovery(logger *log.Logger, metrics *Metrics, next http.Handler) http.Handler {
	if logger == nil {
		logger = log.Default()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				// Deliberate connection abort (http chaos uses it to
				// inject mid-response resets): let net/http handle it.
				panic(p)
			}
			if metrics != nil {
				metrics.Panics.Inc()
			}
			logger.Printf("panic req=%s %s %s: %v\n%s",
				RequestID(r.Context()), r.Method, r.URL.RequestURI(), p, debug.Stack())
			// Best-effort 500; if the handler already wrote, the header
			// set below is a no-op and the response stays truncated.
			http.Error(w, "internal server error", http.StatusInternalServerError)
		}()
		next.ServeHTTP(w, r)
	})
}

// StatusOf maps an Engine.Do error to the HTTP status that conveys its
// retry semantics: 503 for a fully exhausted degradation ladder or a
// draining engine, 504 for a deadline miss (including one that expired
// while queued for admission), 499 for a caller that went away, and
// 422 for everything else (a malformed or unanswerable query).
func StatusOf(err error) int {
	var ex *resilience.ExhaustedError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &ex):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusUnprocessableEntity
	}
}

// DeadlineHeader is the request header carrying the client's deadline:
// either a Go duration ("750ms") relative to request arrival, or an
// absolute Unix-milliseconds timestamp. WithDeadline propagates it
// into the request context.
const DeadlineHeader = "X-Muve-Deadline"

// WithDeadline propagates the X-Muve-Deadline request header into the
// request context as a deadline, capped at max (0 = no cap), so a
// client's time budget bounds how long it waits server-side: past the
// deadline the handler's context fires and the request resolves as a
// 504 — while detached planning continues for the benefit of the cache
// and coalesced followers. An already-expired deadline answers 504
// without entering the handler; a malformed header is a 400.
func WithDeadline(max time.Duration, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get(DeadlineHeader)
		if h == "" {
			next.ServeHTTP(w, r)
			return
		}
		d, err := time.ParseDuration(h)
		if err != nil {
			ms, err2 := strconv.ParseInt(h, 10, 64)
			if err2 != nil {
				http.Error(w, "bad "+DeadlineHeader+": want a duration or unix millis", http.StatusBadRequest)
				return
			}
			d = time.Until(time.UnixMilli(ms))
		}
		if d <= 0 {
			http.Error(w, "deadline already expired", http.StatusGatewayTimeout)
			return
		}
		if max > 0 && d > max {
			d = max
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// WithTracing wraps next so every request runs under a fresh obs.Trace
// named after its path: pipeline stages record spans into it, the
// finished trace lands in ring (served at /debug/traces), and its
// per-stage durations fold into metrics' muve_stage_seconds histograms.
// The trace ID is the request ID when WithLogging runs outside this
// middleware.
//
// Optional observers see every finished trace too — the SLO engine
// hangs off this hook, so its burn rates cover all traffic. With a nil
// ring and no observers tracing is disabled entirely: next runs without
// a trace in context, so instrumented code takes its nil fast path.
func WithTracing(ring *obs.Ring, metrics *Metrics, next http.Handler, observers ...func(*obs.Trace)) http.Handler {
	if ring == nil && len(observers) == 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(r.URL.Path)
		tr.ID = RequestID(r.Context())
		next.ServeHTTP(w, r.WithContext(obs.WithTrace(r.Context(), tr)))
		tr.Finish()
		ring.Add(tr)
		if metrics != nil {
			metrics.ObserveTrace(tr)
		}
		for _, obsv := range observers {
			obsv(tr)
		}
	})
}
