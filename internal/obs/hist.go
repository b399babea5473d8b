package obs

import (
	"sync/atomic"
	"time"
)

// NumBuckets is the number of finite histogram buckets; every Histogram
// additionally keeps a +Inf overflow bucket at index NumBuckets.
const NumBuckets = 19

// bucketBounds are latency bucket upper bounds: 100µs doubling up to
// ~26s, which spans a cache hit (~1µs, first bucket) through an ILP
// solve that exhausted a generous budget. 19 fixed buckets keep
// Observe a single atomic add with no allocation.
var bucketBounds = func() [NumBuckets]time.Duration {
	var b [NumBuckets]time.Duration
	d := 100 * time.Microsecond
	for i := range b {
		b[i] = d
		d *= 2
	}
	return b
}()

// Buckets returns the finite bucket upper bounds.
func Buckets() [NumBuckets]time.Duration { return bucketBounds }

// Exemplar ties one observation to the trace that produced it, so a
// slow histogram bucket on /metrics links straight to the offending
// trace in /debug/traces (OpenMetrics exemplar syntax).
type Exemplar struct {
	TraceID string
	Value   float64 // seconds
	Unix    float64 // observation time, unix seconds
}

// Histogram accumulates durations into fixed log-spaced buckets and
// reports approximate quantiles. The zero value is ready to use; all
// methods are safe for concurrent use and Observe never allocates.
type Histogram struct {
	counts    [NumBuckets + 1]atomic.Uint64 // last bucket = +Inf
	sum       atomic.Int64                  // nanoseconds
	count     atomic.Uint64
	exemplars [NumBuckets + 1]atomic.Pointer[Exemplar]
}

// bucketIndex returns the bucket for one observation.
func bucketIndex(d time.Duration) int {
	i := 0
	for ; i < NumBuckets; i++ {
		if d <= bucketBounds[i] {
			break
		}
	}
	return i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.observe(d, "") }

// ObserveExemplar records one duration and, when traceID is non-empty,
// remembers it as the bucket's latest exemplar. Last-writer-wins per
// bucket: exemplars are a debugging breadcrumb, not a sample survey.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID string) {
	h.observe(d, traceID)
}

func (h *Histogram) observe(d time.Duration, traceID string) {
	if d < 0 {
		d = 0
	}
	i := bucketIndex(d)
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{
			TraceID: traceID,
			Value:   d.Seconds(),
			Unix:    float64(time.Now().UnixMilli()) / 1000,
		})
	}
}

// ExemplarAt returns bucket i's latest exemplar, or nil.
func (h *Histogram) ExemplarAt(i int) *Exemplar {
	if i < 0 || i >= len(h.exemplars) {
		return nil
	}
	return h.exemplars[i].Load()
}

// Count is the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean is the average observed duration (0 with no observations).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(uint64(h.sum.Load()) / n)
}

// Quantile estimates the q-quantile (0 < q < 1) by locating the bucket
// containing the rank and interpolating linearly within it, exactly as
// Prometheus's histogram_quantile does. The first bucket interpolates
// from 0 and the overflow bucket is assumed to span one more doubling,
// so estimates are never clamped to a bucket bound.
func (h *Histogram) Quantile(q float64) time.Duration {
	counts, _, total := h.Snapshot()
	return quantileOf(counts, total, q)
}

// quantileOf interpolates the q-quantile from a bucket-count snapshot.
// Shared by the cumulative Histogram and merged window snapshots.
func quantileOf(counts [NumBuckets + 1]uint64, total uint64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i := range counts {
		c := counts[i]
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c) >= rank {
			var lo, hi time.Duration
			switch {
			case i == 0:
				lo, hi = 0, bucketBounds[0]
			case i < NumBuckets:
				lo, hi = bucketBounds[i-1], bucketBounds[i]
			default: // +Inf bucket
				lo, hi = bucketBounds[NumBuckets-1], 2*bucketBounds[NumBuckets-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += c
	}
	return 2 * bucketBounds[NumBuckets-1]
}

// fracUnder estimates the fraction of observations at or below
// threshold from a bucket-count snapshot, interpolating linearly inside
// the straddling bucket. An empty snapshot counts as fully under: with
// no traffic there is nothing over the threshold.
func fracUnder(counts [NumBuckets + 1]uint64, total uint64, threshold time.Duration) float64 {
	if total == 0 {
		return 1
	}
	var under float64
	for i := range counts {
		c := counts[i]
		if c == 0 {
			continue
		}
		var lo, hi time.Duration
		switch {
		case i == 0:
			lo, hi = 0, bucketBounds[0]
		case i < NumBuckets:
			lo, hi = bucketBounds[i-1], bucketBounds[i]
		default:
			lo, hi = bucketBounds[NumBuckets-1], 2*bucketBounds[NumBuckets-1]
		}
		switch {
		case hi <= threshold:
			under += float64(c)
		case lo >= threshold:
			// entirely over
		default:
			under += float64(c) * float64(threshold-lo) / float64(hi-lo)
		}
	}
	if f := under / float64(total); f < 1 {
		return f
	}
	return 1
}

// Snapshot copies the bucket counts for rendering or merging.
func (h *Histogram) Snapshot() (counts [NumBuckets + 1]uint64, sum int64, count uint64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.sum.Load(), h.count.Load()
}

// Reset zeroes the histogram for reuse as a rotating window slot.
// Observations racing a Reset may leave the slot with a transiently
// inconsistent sum/count (an error of at most the racing observations);
// window consumers tolerate that by construction.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
	h.count.Store(0)
	for i := range h.exemplars {
		h.exemplars[i].Store(nil)
	}
}
