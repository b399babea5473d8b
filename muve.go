// Package muve is a Go implementation of MUVE (Multiplots for Voice
// quEries), the robust voice-querying system of Wei, Trummer and Anderson
// (PVLDB 14(11), 2021; demonstrated at SIGMOD'21).
//
// MUVE answers an ambiguous natural-language (voice) query over a
// relational table with a *multiplot*: a screen-filling grid of bar plots
// covering the results of the most likely interpretations of the input,
// with the likeliest results highlighted in red. The package wires
// together the full pipeline:
//
//	transcript ──► text-to-multi-SQL (phonetic candidate generation)
//	           ──► visualization planning (greedy or ILP solvers)
//	           ──► merged query execution
//	           ──► rendered multiplot (ANSI or SVG)
//
// # Quick start
//
//	tbl, _ := workload.Build(workload.NYC311, 50_000, 1)   // or sqldb.LoadCSV
//	db := sqldb.NewDB()
//	db.Register(tbl)
//	sys, _ := muve.New(db, "requests")
//	ans, _ := sys.Ask("how many noise complaints in brucklyn")
//	fmt.Println(ans.ANSI())
//
// See the examples/ directory for complete programs and internal/bench for
// the experiment harness regenerating every table and figure of the paper.
package muve

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"muve/internal/core"
	"muve/internal/nlq"
	"muve/internal/obs"
	"muve/internal/progressive"
	"muve/internal/resilience"
	"muve/internal/speak"
	"muve/internal/speech"
	"muve/internal/sqldb"
	"muve/internal/usermodel"
	"muve/internal/viz"
)

// AnswerMode selects the output modality: a multiplot to look at or a
// fact set to listen to.
type AnswerMode uint8

const (
	// ModePlot answers with a multiplot (the paper's output), the
	// default.
	ModePlot AnswerMode = iota
	// ModeVoice answers with a spoken fact set planned by
	// internal/speak: the same candidate distribution, optimized for
	// listening effort instead of screen space.
	ModeVoice
)

// String names the mode.
func (m AnswerMode) String() string {
	switch m {
	case ModePlot:
		return "plot"
	case ModeVoice:
		return "voice"
	}
	return fmt.Sprintf("AnswerMode(%d)", uint8(m))
}

// ParseAnswerMode maps a mode name ("plot", "voice"; "" means plot) to
// an AnswerMode.
func ParseAnswerMode(name string) (AnswerMode, error) {
	switch name {
	case "", "plot":
		return ModePlot, nil
	case "voice":
		return ModeVoice, nil
	}
	return ModePlot, fmt.Errorf("muve: unknown answer mode %q (want plot or voice)", name)
}

// SolverKind selects the visualization planner.
type SolverKind uint8

const (
	// SolverGreedy is the fast heuristic (paper Section 6), the default.
	SolverGreedy SolverKind = iota
	// SolverILP is the integer-programming solver (paper Section 5).
	SolverILP
	// SolverILPIncremental is ILP with the anytime refinement scheme
	// (paper Section 5.4).
	SolverILPIncremental
)

// String names the solver.
func (k SolverKind) String() string {
	switch k {
	case SolverGreedy:
		return "greedy"
	case SolverILP:
		return "ilp"
	case SolverILPIncremental:
		return "ilp-inc"
	}
	return fmt.Sprintf("SolverKind(%d)", uint8(k))
}

// ParseSolverKind maps a solver name ("greedy", "ilp", "ilp-inc") to a
// SolverKind; it is the inverse of SolverKind.String.
func ParseSolverKind(name string) (SolverKind, error) {
	for _, k := range [...]SolverKind{SolverGreedy, SolverILP, SolverILPIncremental} {
		if name == k.String() {
			return k, nil
		}
	}
	return SolverGreedy, fmt.Errorf("muve: unknown solver %q (want greedy, ilp or ilp-inc)", name)
}

// Config collects the tunables of a System. Zero values select the
// paper's defaults.
type Config struct {
	// Screen is the output surface (default: one row, phone width).
	Screen core.Screen
	// Model is the user disambiguation-time model (default: the paper's
	// calibration).
	Model usermodel.TimeModel
	// Solver picks the planner.
	Solver SolverKind
	// Mode selects the output modality (default ModePlot). With
	// ModeVoice, Ask/AskContext answer through the speak planner: the
	// ILP solvers map to the exact fact-set ILP, greedy to the greedy
	// fact heuristic.
	Mode AnswerMode
	// SpeakWords bounds a voice answer's spoken length in words
	// (default speak.DefaultWordBudget). Ignored in plot mode.
	SpeakWords int
	// ILPTimeout bounds ILP optimization (default 1s, the paper's
	// interactive-analysis budget).
	ILPTimeout time.Duration
	// K is the number of phonetic alternatives per query element
	// (default 20).
	K int
	// MaxCandidates caps the candidate distribution (default 20).
	MaxCandidates int
	// WordErrorRate, when positive, corrupts input through the simulated
	// speech channel before translation (for demos and experiments).
	WordErrorRate float64
	// Seed drives the speech channel and any sampled execution.
	Seed int64
	// Presentation, when non-nil, answers through a progressive strategy
	// instead of the default single multiplot.
	Presentation progressive.Method
	// BudgetFraction, when in (0, 1], caps the ILP planning budget at
	// this fraction of the calling context's remaining deadline: a
	// request arriving with 400ms left and BudgetFraction 0.5 gives the
	// solver at most 200ms regardless of ILPTimeout, leaving the rest
	// for execution, rendering and the serving layer's cheaper rungs.
	// 0 disables the cap (ILPTimeout alone governs).
	BudgetFraction float64
}

// Option mutates a Config.
type Option func(*Config)

// WithScreen sets the output surface.
func WithScreen(s core.Screen) Option { return func(c *Config) { c.Screen = s } }

// WithRows sets the number of multiplot rows.
func WithRows(n int) Option { return func(c *Config) { c.Screen.Rows = n } }

// WithWidth sets the screen width in pixels.
func WithWidth(px int) Option { return func(c *Config) { c.Screen.WidthPx = px } }

// WithSolver selects the planner.
func WithSolver(k SolverKind) Option { return func(c *Config) { c.Solver = k } }

// WithAnswerMode selects the output modality (see Config.Mode).
func WithAnswerMode(m AnswerMode) Option { return func(c *Config) { c.Mode = m } }

// WithSpeakWords bounds voice answers to n spoken words (see
// Config.SpeakWords).
func WithSpeakWords(n int) Option { return func(c *Config) { c.SpeakWords = n } }

// WithILPTimeout bounds ILP optimization time.
func WithILPTimeout(d time.Duration) Option { return func(c *Config) { c.ILPTimeout = d } }

// WithTimeModel overrides the user time model.
func WithTimeModel(m usermodel.TimeModel) Option { return func(c *Config) { c.Model = m } }

// WithK sets the number of phonetic alternatives per element.
func WithK(k int) Option { return func(c *Config) { c.K = k } }

// WithMaxCandidates caps the candidate distribution size.
func WithMaxCandidates(n int) Option { return func(c *Config) { c.MaxCandidates = n } }

// WithSpeechNoise simulates speech-recognition noise on every Ask.
func WithSpeechNoise(wordErrorRate float64, seed int64) Option {
	return func(c *Config) {
		c.WordErrorRate = wordErrorRate
		c.Seed = seed
	}
}

// WithPresentation answers through a progressive presentation strategy
// (see the progressive package: Inc-Plot, App-1%, App-D, ILP-Inc, ...).
func WithPresentation(m progressive.Method) Option {
	return func(c *Config) { c.Presentation = m }
}

// WithBudgetFraction caps ILP planning at the given fraction of the
// request context's remaining deadline (see Config.BudgetFraction).
func WithBudgetFraction(f float64) Option {
	return func(c *Config) { c.BudgetFraction = f }
}

// System is a configured MUVE instance over one table.
//
// A System is safe for concurrent use by multiple goroutines: the
// catalog, pipeline and database are read-only after New, planning
// state is created per Ask call, and the one mutable component — the
// simulated speech channel's random source (enabled by
// WithSpeechNoise) — is guarded by an internal mutex.
type System struct {
	db      *sqldb.DB
	table   string
	cfg     Config
	catalog *nlq.Catalog
	pipe    *nlq.Pipeline
	// chMu serializes channel.Transcribe, whose *rand.Rand is not safe
	// for concurrent use.
	chMu    sync.Mutex
	channel *speech.Channel
}

// New builds a System over the named table of db.
func New(db *sqldb.DB, table string, opts ...Option) (*System, error) {
	tbl, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	cfg := Config{
		Screen:        core.DefaultScreen(),
		Model:         usermodel.DefaultModel(),
		ILPTimeout:    time.Second,
		K:             20,
		MaxCandidates: 20,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.Screen.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Model.Valid() {
		return nil, fmt.Errorf("muve: time model violates Assumption 1")
	}
	cat := nlq.BuildCatalog(tbl, 0)
	pipe := nlq.NewPipeline(cat)
	pipe.Generator.K = cfg.K
	pipe.Generator.MaxCandidates = cfg.MaxCandidates
	s := &System{db: db, table: table, cfg: cfg, catalog: cat, pipe: pipe}
	if cfg.WordErrorRate > 0 {
		rng := rand.New(rand.NewSource(cfg.Seed))
		ch := speech.NewChannel(cfg.WordErrorRate, rng)
		ch.Vocabulary = vocabularyOf(cat)
		s.channel = ch
	}
	return s, nil
}

// vocabularyOf collects catalog terms for the speech channel's
// in-vocabulary confusions.
func vocabularyOf(cat *nlq.Catalog) []string {
	vocab := append([]string(nil), cat.Columns()...)
	return vocab
}

// Answer is the result of one voice query.
type Answer struct {
	// Transcript is the text after the (optional) speech channel.
	Transcript string
	// TopQuery is the most likely translation.
	TopQuery sqldb.Query
	// Candidates is the full probability distribution over queries.
	Candidates []core.Candidate
	// Multiplot is the planned visualization with executed values.
	Multiplot core.Multiplot
	// Headline summarizes the query elements common to all candidates
	// (shown above the multiplot, cf. paper Figure 2b).
	Headline string
	// Stats reports how planning went.
	Stats core.Stats
	// Trace is present when a progressive presentation method ran.
	Trace *progressive.Trace
	// Mode is the output modality that produced this answer.
	Mode AnswerMode
	// Voice is the planned spoken answer; non-nil exactly when Mode is
	// ModeVoice (the Multiplot is then empty).
	Voice *speak.VoiceAnswer
}

// Ask answers a natural-language query with a multiplot.
func (s *System) Ask(text string) (*Answer, error) {
	return s.AskContext(context.Background(), text)
}

// AskContext answers a natural-language query with a multiplot,
// honoring ctx: cancellation and deadlines propagate into
// visualization planning (solver checkpoints, ILP deadline capping)
// and merged query execution, so an abandoned or over-budget request
// stops consuming CPU early and returns ctx's error.
//
// An optional prior multiplot (typically the previous utterance's
// Answer.Multiplot) warm-starts ILP planning: the first non-nil,
// non-empty prior seeds the solver's initial incumbent, and
// Answer.Stats.WarmStart reports how the seed fared. A call without a
// prior plans cold. Priors are ignored by the greedy solver and by a
// custom Presentation.
func (s *System) AskContext(ctx context.Context, text string, prior ...*core.Multiplot) (*Answer, error) {
	if s.cfg.Mode == ModeVoice {
		// Multiplot priors carry no facts; voice sessions pass prior
		// fact sets through AskVoiceContext instead.
		return s.AskVoiceContext(ctx, text)
	}
	return s.askPlot(ctx, text, prior...)
}

// askPlot answers with a multiplot whatever the configured mode.
func (s *System) askPlot(ctx context.Context, text string, prior ...*core.Multiplot) (*Answer, error) {
	transcript, err := s.transcribe(ctx, text)
	if err != nil {
		return nil, err
	}
	top, err := s.pipe.Translator.Translate(transcript)
	if err != nil {
		return nil, err
	}
	return s.answer(ctx, transcript, top, firstPrior(prior))
}

// transcribe runs the speech front end: the optional simulated speech
// channel under its own span, shared by the plot and voice paths.
func (s *System) transcribe(ctx context.Context, text string) (transcript string, err error) {
	// obs.Do attaches the pprof stage label so CPU samples inside the
	// speech front end attribute to stage=speech (same for the other
	// pipeline stages below).
	obs.Do(ctx, "speech", func(ctx context.Context) {
		sp := obs.StartSpan(ctx, "speech")
		if err = resilience.Inject(ctx, "speech"); err != nil {
			sp.SetErr(err).End()
			return
		}
		transcript = text
		if s.channel != nil {
			s.chMu.Lock()
			transcript = s.channel.Transcribe(text)
			s.chMu.Unlock()
		}
		sp.SetBool("simulated", s.channel != nil).
			SetInt("words", int64(len(strings.Fields(transcript)))).
			End()
	})
	return transcript, err
}

// AskVoice answers a natural-language query with a spoken fact set,
// regardless of the configured mode.
func (s *System) AskVoice(text string) (*Answer, error) {
	return s.AskVoiceContext(context.Background(), text)
}

// AskVoiceContext is the voice-mode entry point with the cancellation
// semantics of AskContext. An optional prior fact set (typically the
// previous utterance's Answer.Voice.Facts) warm-starts the exact
// fact-set ILP, mirroring the multiplot warm-start path;
// Answer.Stats.WarmStart reports how the hint fared.
func (s *System) AskVoiceContext(ctx context.Context, text string, prior ...*speak.FactSet) (*Answer, error) {
	transcript, err := s.transcribe(ctx, text)
	if err != nil {
		return nil, err
	}
	top, err := s.pipe.Translator.Translate(transcript)
	if err != nil {
		return nil, err
	}
	return s.answerVoice(ctx, transcript, top, firstFactPrior(prior))
}

// firstFactPrior picks the first usable voice warm-start hint.
func firstFactPrior(prior []*speak.FactSet) *speak.FactSet {
	for _, p := range prior {
		if p != nil && len(p.Facts) > 0 {
			return p
		}
	}
	return nil
}

// firstPrior picks the first usable warm-start hint from a variadic
// prior list: nil and empty multiplots carry no information.
func firstPrior(prior []*core.Multiplot) *core.Multiplot {
	for _, p := range prior {
		if p != nil && p.NumPlots() > 0 {
			return p
		}
	}
	return nil
}

// candidates expands the top interpretation into the phonetic candidate
// distribution under the "nlq" span, shared by the plot and voice paths.
func (s *System) candidates(ctx context.Context, top sqldb.Query) (cands []core.Candidate, err error) {
	obs.Do(ctx, "nlq", func(ctx context.Context) {
		sp := obs.StartSpan(ctx, "nlq")
		if err = resilience.Inject(ctx, "nlq"); err != nil {
			sp.SetErr(err).End()
			return
		}
		cands, err = s.pipe.Generator.CandidatesContext(ctx, top)
		if err != nil {
			sp.SetErr(err).End()
			cands = nil
			return
		}
		sp.SetInt("candidates", int64(len(cands))).End()
	})
	return cands, err
}

// answer runs the shared back half of Ask and AskQuery: candidate
// generation, planning, execution, rendering-ready assembly.
func (s *System) answer(ctx context.Context, transcript string, top sqldb.Query, prior *core.Multiplot) (*Answer, error) {
	cands, err := s.candidates(ctx, top)
	if err != nil {
		return nil, err
	}
	in := &core.Instance{
		Candidates: cands,
		Screen:     s.cfg.Screen,
		Model:      s.cfg.Model,
	}
	ans := &Answer{
		Transcript: transcript,
		TopQuery:   top,
		Candidates: cands,
		Headline:   headline(cands),
	}
	sess := &progressive.Session{
		DB:         s.db,
		Instance:   in,
		Correct:    -1,
		SampleSeed: uint64(s.cfg.Seed),
		Ctx:        ctx,
	}
	method := s.cfg.Presentation
	if method == nil {
		method = s.defaultMethod(ctx, prior)
	}
	psp := obs.StartSpan(ctx, "progressive")
	if err := resilience.Inject(ctx, "progressive"); err != nil {
		psp.SetErr(err).End()
		return nil, err
	}
	var trace *progressive.Trace
	obs.Do(ctx, "progressive", func(ctx context.Context) {
		sess.Ctx = ctx // carry the stage label into solver goroutines
		trace, err = method.Present(sess)
	})
	if err != nil {
		psp.SetErr(err).End()
		return nil, err
	}
	psp.SetStr("method", method.Name()).
		SetInt("events", int64(len(trace.Events))).
		SetInt("updates", int64(trace.Updates)).
		SetFloat("sample_rate", trace.SampleRate)
	if trace.EarlyStop != "" {
		psp.SetStr("early_stop", trace.EarlyStop)
	}
	psp.End()
	ans.Trace = trace
	vsp := obs.StartSpan(ctx, "viz")
	if err := resilience.Inject(ctx, "viz"); err != nil {
		vsp.SetErr(err).End()
		return nil, err
	}
	if len(trace.Events) > 0 {
		ans.Multiplot = trace.Events[len(trace.Events)-1].Multiplot
	}
	ans.Stats = trace.Solver
	ans.Stats.Cost = in.Cost(ans.Multiplot)
	ans.Stats.Duration = trace.TTime
	ans.Stats.Scan = trace.Scan
	bars, redBars, plots, _ := ans.Multiplot.Counts()
	vsp.SetInt("plots", int64(plots)).
		SetInt("bars", int64(bars)).
		SetInt("red_bars", int64(redBars)).
		End()
	return ans, nil
}

// answerVoice runs the voice back half: candidate generation, fact-set
// planning under the "speak" span, and transcript rendering under the
// "viz" span — the audio mirror of answer().
func (s *System) answerVoice(ctx context.Context, transcript string, top sqldb.Query, prior *speak.FactSet) (*Answer, error) {
	cands, err := s.candidates(ctx, top)
	if err != nil {
		return nil, err
	}
	in := &core.Instance{
		Candidates: cands,
		Screen:     s.cfg.Screen,
		Model:      s.cfg.Model,
	}
	ans := &Answer{
		Transcript: transcript,
		TopQuery:   top,
		Candidates: cands,
		Headline:   headline(cands),
		Mode:       ModeVoice,
	}
	cost := speak.FromTimeModel(s.cfg.Model)

	sp := obs.StartSpan(ctx, "speak")
	if err := resilience.Inject(ctx, "speak"); err != nil {
		sp.SetErr(err).End()
		return nil, err
	}
	var fs speak.FactSet
	var st core.Stats
	var planner string
	obs.Do(ctx, "speak", func(ctx context.Context) {
		switch s.cfg.Solver {
		case SolverILP, SolverILPIncremental:
			p := &speak.Planner{
				Cost:       cost,
				WordBudget: s.cfg.SpeakWords,
				Timeout:    s.ilpBudget(ctx),
				WarmStart:  true, // greedy floor: a timeout never speaks worse than greedy
				Hint:       prior,
				Ctx:        ctx,
			}
			planner = p.Name()
			fs, st, err = p.Solve(in)
		default:
			g := &speak.Greedy{Cost: cost, WordBudget: s.cfg.SpeakWords, Ctx: ctx}
			planner = g.Name()
			fs, st, err = g.Solve(in)
		}
	})
	if err != nil {
		sp.SetErr(err).End()
		return nil, err
	}
	w, _, n, nD := fs.Totals()
	sp.SetStr("planner", planner).
		SetInt("facts", int64(n)).
		SetInt("direct_facts", int64(nD)).
		SetInt("words", int64(w)).
		SetFloat("cost", st.Cost).
		SetBool("optimal", st.Optimal)
	if st.Workers > 0 {
		sp.SetInt("workers", int64(st.Workers))
	}
	if st.WarmStart != "" {
		sp.SetStr("warm_start", string(st.WarmStart))
	}
	sp.End()

	vsp := obs.StartSpan(ctx, "viz")
	if err := resilience.Inject(ctx, "viz"); err != nil {
		vsp.SetErr(err).End()
		return nil, err
	}
	var va *speak.VoiceAnswer
	obs.Do(ctx, "viz", func(ctx context.Context) {
		va, err = speak.RenderContext(ctx, s.db, in, fs, cost)
	})
	if err != nil {
		vsp.SetErr(err).End()
		return nil, err
	}
	ans.Voice = va
	ans.Stats = st
	ans.Stats.Scan = va.Scan
	vsp.SetInt("facts", int64(n)).
		SetInt("spoken_words", int64(va.Words)).
		End()
	return ans, nil
}

// ilpBudget resolves an exact planner's time budget: ILPTimeout, capped
// at BudgetFraction of the time left before ctx's deadline, so a
// request that already spent most of its deadline upstream (queueing,
// speech, NLQ) does not hand the solver a budget it can no longer
// afford.
func (s *System) ilpBudget(ctx context.Context) time.Duration {
	budget := s.cfg.ILPTimeout
	if f := s.cfg.BudgetFraction; f > 0 {
		if deadline, ok := ctx.Deadline(); ok {
			if capped := time.Duration(f * float64(time.Until(deadline))); capped > 0 && capped < budget {
				budget = capped
			}
		}
	}
	return budget
}

// defaultMethod maps the configured solver to a presentation method
// whose ILP budget comes from ilpBudget.
func (s *System) defaultMethod(ctx context.Context, prior *core.Multiplot) progressive.Method {
	budget := s.ilpBudget(ctx)
	switch s.cfg.Solver {
	case SolverILP:
		return progressive.NewILPWarm(budget, prior)
	case SolverILPIncremental:
		return progressive.ILPInc{Budget: budget, Hint: prior}
	default:
		return progressive.NewGreedyDefault()
	}
}

// Setup describes, in one line for a startup log, how s plans an
// answer: the presentation method its config picks (as defaultMethod
// picks it per request) and the exact planners' ILP budget with the
// BudgetFraction cap it applies. The greedy solver runs no ILP, so it
// has no budget to report.
func (s *System) Setup() string {
	method := s.cfg.Presentation
	if method == nil {
		method = s.defaultMethod(context.Background(), nil)
	}
	budget := "unused (greedy solver)"
	if s.cfg.Solver != SolverGreedy {
		budget = s.cfg.ILPTimeout.String() + ", no deadline cap"
		if f := s.cfg.BudgetFraction; f > 0 {
			budget = fmt.Sprintf("%s, capped at %g of the remaining deadline", s.cfg.ILPTimeout, f)
		}
	}
	return fmt.Sprintf("presentation %s; ILP budget %s", method.Name(), budget)
}

// headline renders the query elements shared by every candidate.
func headline(cands []core.Candidate) string {
	if len(cands) == 0 {
		return ""
	}
	counts := map[string]int{}
	var order []string
	for _, c := range cands {
		for _, el := range elementsOf(c.Query) {
			if counts[el] == 0 {
				order = append(order, el)
			}
			counts[el]++
		}
	}
	var shared []string
	for _, el := range order {
		if counts[el] == len(cands) {
			shared = append(shared, el)
		}
	}
	sort.Strings(shared)
	if len(shared) == 0 {
		return cands[0].Query.Table
	}
	return cands[0].Query.Table + ": " + strings.Join(shared, ", ")
}

// elementsOf lists a query's display elements.
func elementsOf(q sqldb.Query) []string {
	var out []string
	for _, a := range q.Aggs {
		out = append(out, a.String())
	}
	for _, p := range q.Preds {
		out = append(out, p.String())
	}
	return out
}

// ANSI renders the answer's multiplot for terminals (with color).
func (a *Answer) ANSI() string {
	r := &viz.ANSIRenderer{Color: true}
	return a.Headline + "\n" + r.Render(a.Multiplot)
}

// ANSIPlain renders without color escape codes.
func (a *Answer) ANSIPlain() string {
	r := &viz.ANSIRenderer{}
	return a.Headline + "\n" + r.Render(a.Multiplot)
}

// SVG renders the answer's multiplot as an SVG document.
func (a *Answer) SVG() string {
	r := &viz.SVGRenderer{Headline: a.Headline}
	return r.Render(a.Multiplot)
}

// AskQuery answers a SQL query directly, bypassing transcript translation:
// the query is treated as the most likely interpretation and expanded into
// phonetic candidates exactly as Ask would after translation. Use it when
// the caller already has structured input (tests, programmatic clients,
// replaying query logs).
func (s *System) AskQuery(q sqldb.Query) (*Answer, error) {
	return s.AskQueryContext(context.Background(), q)
}

// AskQueryContext is AskQuery with the cancellation and warm-start
// semantics of AskContext.
func (s *System) AskQueryContext(ctx context.Context, q sqldb.Query, prior ...*core.Multiplot) (*Answer, error) {
	return s.answer(ctx, q.SQL(), q, firstPrior(prior))
}

// Catalog exposes the schema catalog the system matches against, e.g. for
// building custom translators on top of the candidate generator.
func (s *System) Catalog() *nlq.Catalog { return s.catalog }
