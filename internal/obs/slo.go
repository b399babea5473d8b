// SLO objectives and multi-window multi-burn-rate evaluation.
//
// An Objective declares "quantile of stage latency under threshold for
// target fraction of requests" — e.g. `e2e:p95<500ms` targeting 0.95.
// The engine keeps a Windowed latency series per observed stage (plus
// the synthetic "e2e" stage for whole-request latency), computes the
// bad-event fraction over a fast and a slow sliding window, and divides
// by the error budget (1-target) to get burn rates: burn 1.0 spends the
// budget exactly at the allowed pace, 14.4 exhausts a 30-day budget in
// ~2 days (the classic page threshold). An objective trips only when
// BOTH windows burn over the threshold — the fast window makes paging
// quick, the slow window stops a brief blip from paging at all.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Objective is one latency SLO: Target fraction of Stage requests at or
// under Threshold. Stage "e2e" means whole-request latency.
type Objective struct {
	Stage     string
	Target    float64 // good-event ratio, e.g. 0.95
	Threshold time.Duration
}

// String renders the spec form, e.g. "solver:p99<250ms".
func (o Objective) String() string {
	p := strconv.FormatFloat(o.Target*100, 'f', -1, 64)
	return fmt.Sprintf("%s:p%s<%s", o.Stage, p, o.Threshold)
}

// StageE2E is the synthetic stage name for end-to-end request latency.
const StageE2E = "e2e"

// ParseObjectives parses a semicolon-separated SLO spec:
//
//	stage:pQQ<DUR[;stage:pQQ<DUR...]
//
// e.g. "e2e:p95<500ms;solver:p99<250ms". QQ is the target percentile
// (fractions like p99.9 allowed); DUR is a Go duration. An empty spec
// yields no objectives.
func ParseObjectives(spec string) ([]Objective, error) {
	var objs []Objective
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		stage, rest, ok := strings.Cut(part, ":")
		if !ok || stage == "" {
			return nil, fmt.Errorf("obs: objective %q: want stage:pNN<duration", part)
		}
		pct, durStr, ok := strings.Cut(rest, "<")
		if !ok || !strings.HasPrefix(pct, "p") {
			return nil, fmt.Errorf("obs: objective %q: want stage:pNN<duration", part)
		}
		p, err := strconv.ParseFloat(pct[1:], 64)
		// The p/100 guard rejects subnormal percentiles whose target
		// would underflow to 0 (an objective no request can ever miss).
		if err != nil || p <= 0 || p >= 100 || p/100 <= 0 {
			return nil, fmt.Errorf("obs: objective %q: percentile %q out of (0,100)", part, pct)
		}
		d, err := time.ParseDuration(durStr)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("obs: objective %q: bad threshold %q", part, durStr)
		}
		objs = append(objs, Objective{Stage: strings.TrimSpace(stage), Target: p / 100, Threshold: d})
	}
	return objs, nil
}

// SLOConfig assembles an SLO engine.
type SLOConfig struct {
	// Objectives to evaluate; stages without one still get windowed
	// latency series on /debug/slo.
	Objectives []Objective
	// SlotDur is the windowed-series slot granularity (default 10s).
	SlotDur time.Duration
	// ShortWindow/FastWindow/SlowWindow are the reporting and burn-rate
	// windows (defaults 1m, 5m, 1h). FastWindow and SlowWindow drive
	// trip decisions; ShortWindow feeds live quantile reporting.
	ShortWindow time.Duration
	FastWindow  time.Duration
	SlowWindow  time.Duration
	// BurnThreshold trips an objective when both windows burn at or
	// above it (default 14.4 — budget gone in ~2 days at 30-day pace).
	BurnThreshold float64
	// Cooldown rate-limits OnTrip per objective (default 2m).
	Cooldown time.Duration
	// OnTrip, when non-nil, fires on each newly tripped objective —
	// e.g. a flight-recorder trigger.
	OnTrip func(Trip)
	// Clock is the injectable time source (default time.Now).
	Clock func() time.Time
}

// Trip records one burn-rate threshold crossing.
type Trip struct {
	At        time.Time `json:"at"`
	Objective string    `json:"objective"`
	FastBurn  float64   `json:"fast_burn"`
	SlowBurn  float64   `json:"slow_burn"`
}

// objState pairs an objective with its since-boot budget accounting.
type objState struct {
	obj      Objective
	good     uint64 // guarded by SLO.mu
	total    uint64
	lastTrip time.Time
}

// SLO evaluates latency objectives over sliding windows. All methods
// are safe for concurrent use.
type SLO struct {
	cfg SLOConfig

	mu     sync.Mutex
	series map[string]*Windowed
	objs   []*objState
}

// NewSLO builds the engine and its per-objective series.
func NewSLO(cfg SLOConfig) *SLO {
	if cfg.SlotDur <= 0 {
		cfg.SlotDur = 10 * time.Second
	}
	if cfg.ShortWindow <= 0 {
		cfg.ShortWindow = time.Minute
	}
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = 5 * time.Minute
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = time.Hour
	}
	if cfg.BurnThreshold <= 0 {
		cfg.BurnThreshold = 14.4
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * time.Minute
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &SLO{cfg: cfg, series: make(map[string]*Windowed)}
	for _, o := range cfg.Objectives {
		s.objs = append(s.objs, &objState{obj: o})
		s.seriesFor(o.Stage) // eager, so the report lists it even idle
	}
	return s
}

// Objectives returns the configured objectives.
func (s *SLO) Objectives() []Objective {
	out := make([]Objective, len(s.objs))
	for i, st := range s.objs {
		out[i] = st.obj
	}
	return out
}

// seriesFor returns (lazily creating) the stage's windowed series. The
// ring covers the slow window plus one partial slot.
func (s *SLO) seriesFor(stage string) *Windowed {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.series[stage]
	if w == nil {
		slots := int(s.cfg.SlowWindow/s.cfg.SlotDur) + 1
		w = NewWindowed(s.cfg.SlotDur, slots)
		w.SetClock(s.cfg.Clock)
		s.series[stage] = w
	}
	return w
}

// Observe records one stage latency and updates budget accounting for
// any objective on that stage.
func (s *SLO) Observe(stage string, d time.Duration) {
	s.seriesFor(stage).Observe(d)
	s.mu.Lock()
	for _, st := range s.objs {
		if st.obj.Stage != stage {
			continue
		}
		st.total++
		if d <= st.obj.Threshold {
			st.good++
		}
	}
	s.mu.Unlock()
}

// ObserveTrace folds a finished trace into the SLO series: its total
// duration as stage "e2e", each positive-duration span under its stage.
// Nil traces no-op, matching the tracing fast path.
func (s *SLO) ObserveTrace(tr *Trace) {
	if tr == nil {
		return
	}
	if d := tr.Duration(); d > 0 {
		s.Observe(StageE2E, d)
	}
	for _, sp := range tr.Spans() {
		if sp.Dur <= 0 {
			continue
		}
		s.Observe(sp.Stage, sp.Dur)
	}
}

// burn converts a windowed bad-event fraction to a burn rate: the
// multiple of the sustainable error-budget spend rate. 0 on an empty
// window — no traffic burns nothing.
func burn(st WindowStat, o Objective) float64 {
	budget := 1 - o.Target
	if budget <= 0 {
		budget = 1e-9
	}
	return (1 - st.FracUnder(o.Threshold)) / budget
}

// ObjectiveStatus is one objective's evaluated state.
type ObjectiveStatus struct {
	Objective  string  `json:"objective"`
	Stage      string  `json:"stage"`
	TargetPct  float64 `json:"target_pct"`
	ThresholdS float64 `json:"threshold_seconds"`
	// FastBurn/SlowBurn are the burn rates over the two alerting
	// windows; Breached is both at or over the threshold.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Breached bool    `json:"breached"`
	// Good/Total and BudgetUsed account the error budget since boot:
	// BudgetUsed 1.0 means the whole allowance is spent.
	Good       uint64  `json:"good"`
	Total      uint64  `json:"total"`
	BudgetUsed float64 `json:"budget_used"`
}

// WindowStatus is one stage's latency summary over one window.
type WindowStatus struct {
	Window     string  `json:"window"`
	Count      uint64  `json:"count"`
	RatePerSec float64 `json:"rate_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
}

// StageStatus is one stage's windowed latency summaries.
type StageStatus struct {
	Stage   string         `json:"stage"`
	Windows []WindowStatus `json:"windows"`
}

// Report is the full /debug/slo payload.
type Report struct {
	At            time.Time         `json:"at"`
	BurnThreshold float64           `json:"burn_threshold"`
	Objectives    []ObjectiveStatus `json:"objectives"`
	Stages        []StageStatus     `json:"stages"`
}

// evaluate computes one objective's status from its series.
func (s *SLO) evaluate(st *objState) ObjectiveStatus {
	w := s.seriesFor(st.obj.Stage)
	fast := burn(w.Window(s.cfg.FastWindow), st.obj)
	slow := burn(w.Window(s.cfg.SlowWindow), st.obj)
	s.mu.Lock()
	good, total := st.good, st.total
	s.mu.Unlock()
	used := 0.0
	if allowed := (1 - st.obj.Target) * float64(total); allowed > 0 {
		used = float64(total-good) / allowed
	}
	return ObjectiveStatus{
		Objective:  st.obj.String(),
		Stage:      st.obj.Stage,
		TargetPct:  st.obj.Target * 100,
		ThresholdS: st.obj.Threshold.Seconds(),
		FastBurn:   fast,
		SlowBurn:   slow,
		Breached:   fast >= s.cfg.BurnThreshold && slow >= s.cfg.BurnThreshold,
		Good:       good,
		Total:      total,
		BudgetUsed: used,
	}
}

// Check evaluates every objective and fires OnTrip (subject to the
// per-objective cooldown) for each breach. It returns the trips fired.
func (s *SLO) Check() []Trip {
	now := s.cfg.Clock()
	var trips []Trip
	for _, st := range s.objs {
		os := s.evaluate(st)
		if !os.Breached {
			continue
		}
		s.mu.Lock()
		due := st.lastTrip.IsZero() || now.Sub(st.lastTrip) >= s.cfg.Cooldown
		if due {
			st.lastTrip = now
		}
		s.mu.Unlock()
		if !due {
			continue
		}
		t := Trip{At: now, Objective: st.obj.String(), FastBurn: os.FastBurn, SlowBurn: os.SlowBurn}
		trips = append(trips, t)
		if s.cfg.OnTrip != nil {
			s.cfg.OnTrip(t)
		}
	}
	return trips
}

// Run calls Check every interval until ctx is done.
func (s *SLO) Run(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = 10 * time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.Check()
		}
	}
}

// Report snapshots every objective and every observed stage's windowed
// latency summaries (short, fast and slow windows).
func (s *SLO) Report() Report {
	rep := Report{At: s.cfg.Clock(), BurnThreshold: s.cfg.BurnThreshold}
	for _, st := range s.objs {
		rep.Objectives = append(rep.Objectives, s.evaluate(st))
	}
	s.mu.Lock()
	stages := make([]string, 0, len(s.series))
	for k := range s.series {
		stages = append(stages, k)
	}
	s.mu.Unlock()
	sort.Strings(stages)
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	for _, stage := range stages {
		w := s.seriesFor(stage)
		ss := StageStatus{Stage: stage}
		for _, win := range []time.Duration{s.cfg.ShortWindow, s.cfg.FastWindow, s.cfg.SlowWindow} {
			st := w.Window(win)
			ss.Windows = append(ss.Windows, WindowStatus{
				Window:     win.String(),
				Count:      st.Count,
				RatePerSec: st.Rate(),
				P50Ms:      ms(st.Quantile(0.50)),
				P90Ms:      ms(st.Quantile(0.90)),
				P95Ms:      ms(st.Quantile(0.95)),
				P99Ms:      ms(st.Quantile(0.99)),
			})
		}
		rep.Stages = append(rep.Stages, ss)
	}
	return rep
}

// WriteText renders the report as an operator-readable table.
func (r Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "slo report @ %s (burn threshold %.1f)\n", r.At.Format(time.RFC3339), r.BurnThreshold)
	if len(r.Objectives) > 0 {
		fmt.Fprintf(w, "\n%-24s %10s %10s %10s %10s %8s\n", "objective", "fast burn", "slow burn", "budget", "good/total", "state")
		for _, o := range r.Objectives {
			state := "ok"
			if o.Breached {
				state = "BREACH"
			}
			fmt.Fprintf(w, "%-24s %10.2f %10.2f %9.1f%% %4d/%-5d %8s\n",
				o.Objective, o.FastBurn, o.SlowBurn, o.BudgetUsed*100, o.Good, o.Total, state)
		}
	}
	fmt.Fprintf(w, "\n%-12s %-6s %8s %9s %9s %9s %9s\n", "stage", "window", "count", "rate/s", "p50 ms", "p95 ms", "p99 ms")
	for _, st := range r.Stages {
		for _, win := range st.Windows {
			fmt.Fprintf(w, "%-12s %-6s %8d %9.2f %9.3f %9.3f %9.3f\n",
				st.Stage, win.Window, win.Count, win.RatePerSec, win.P50Ms, win.P95Ms, win.P99Ms)
		}
	}
}

// Handler serves the live report at /debug/slo: JSON by default,
// ?format=text for the table.
func (s *SLO) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := s.Report()
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			rep.WriteText(w)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	})
}
