package main

import (
	"context"
	"math"
	"sort"
	"strings"

	"muve"
	"muve/internal/core"
	"muve/internal/merge"
	"muve/internal/nlq"
	"muve/internal/speak"
	"muve/internal/sqldb"
)

// composer answers utterances by calling MUVE's layers from outside, in
// the order Ask calls them, and times each call as a span:
//
//	plot:  nlq.translate → nlq.candidates → core.solve → merge.plan → sqldb.exec → viz.render
//	voice: nlq.translate → nlq.candidates → speak.plan → speak.render
//
// speak.Render plans and executes its fact queries internally; for the
// voice path the composer first replays that merge.BuildPlan +
// Plan.Execute as spans marked replay, so the merge and sqldb layers get
// their own numbers without the replay counting toward the answer.
type composer struct {
	e    *env
	pipe *nlq.Pipeline
	tr   *tracer
	// render makes plot answers render to SVG; the served workload
	// renders after Engine.Do returns instead, as muveserver does.
	render bool
}

func newComposer(e *env, tr *tracer) *composer {
	return &composer{e: e, pipe: newPipeline(e.sys), tr: tr, render: true}
}

// answer composes the answer to text as request req under parent (-1
// for a root), returning it with its SVG rendering ("" for voice).
func (c *composer) answer(ctx context.Context, req, parent int, text string) (*muve.Answer, string, error) {
	sp := c.tr.start(req, parent, "nlq.translate")
	top, err := c.pipe.Translator.Translate(text)
	sp.end()
	if err != nil {
		return nil, "", err
	}
	sp = c.tr.start(req, parent, "nlq.candidates")
	cands, err := c.pipe.Generator.CandidatesContext(ctx, top)
	sp.end("candidates", len(cands))
	if err != nil {
		return nil, "", err
	}
	in := &core.Instance{Candidates: cands, Screen: c.e.screen, Model: c.e.model}
	ans := &muve.Answer{
		Transcript: text,
		TopQuery:   top,
		Candidates: cands,
		Headline:   headline(cands),
		Mode:       c.e.spec.mode,
	}
	if c.e.spec.mode == muve.ModeVoice {
		return ans, "", c.voice(ctx, req, parent, in, ans)
	}
	svg, err := c.plot(ctx, req, parent, in, ans)
	return ans, svg, err
}

// plot plans, executes and renders a multiplot answer.
func (c *composer) plot(ctx context.Context, req, parent int, in *core.Instance, ans *muve.Answer) (string, error) {
	var (
		m   core.Multiplot
		st  core.Stats
		err error
	)
	sp := c.tr.start(req, parent, "core.solve")
	switch c.e.spec.solver {
	case muve.SolverILP:
		s := &core.ILPSolver{Timeout: c.e.ilpTimeout, WarmStart: true, Ctx: ctx}
		m, st, err = s.Solve(in)
	default:
		g := &core.GreedySolver{Ctx: ctx}
		m, st, err = g.Solve(in)
	}
	sp.end("bb_nodes", st.Nodes, "simplex_iters", st.SimplexIters, "optimal", st.Optimal)
	if err != nil {
		return "", err
	}
	queries, pos := displayedQueries(in.Candidates, m)
	if len(queries) > 0 {
		sp = c.tr.start(req, parent, "merge.plan")
		plan := merge.BuildSharedPlan(queries)
		sp.end()
		sp = c.tr.start(req, parent, "sqldb.exec")
		res, scan, err := plan.Execute(c.e.db, 0, 0)
		// Singletons bypass the shared scan and its counters: one full
		// row-at-a-time pass each.
		singles := int64(len(plan.Singles))
		sp.end("rows", scan.Rows+singles*int64(c.e.table.NumRows()), "scans", scan.Scans+singles,
			"preds", scan.Predicates, "shared_preds", scan.SharedPredicates)
		if err != nil {
			return "", err
		}
		m = applyResults(m, pos, res)
	}
	ans.Multiplot = m
	ans.Stats.Cost = in.Cost(m)
	if !c.render {
		return "", nil
	}
	sp = c.tr.start(req, parent, "viz.render")
	svg := ans.SVG()
	sp.end()
	return svg, nil
}

// voice plans and renders a spoken fact set with the greedy fact
// planner.
func (c *composer) voice(ctx context.Context, req, parent int, in *core.Instance, ans *muve.Answer) error {
	cost := speak.FromTimeModel(c.e.model)
	sp := c.tr.start(req, parent, "speak.plan")
	g := &speak.Greedy{Cost: cost, Ctx: ctx}
	fs, st, err := g.Solve(in)
	sp.end()
	if err != nil {
		return err
	}
	if queries := factQueries(in, fs); len(queries) > 0 {
		sp = c.tr.start(req, parent, "merge.plan")
		plan := merge.BuildPlan(c.e.db, queries)
		sp.markReplay()
		sp.end()
		sp = c.tr.start(req, parent, "sqldb.exec")
		sp.markReplay()
		_, err := plan.Execute(c.e.db, 0, 0)
		scans := int64(len(plan.Groups) + len(plan.Singles))
		sp.end("rows", scans*int64(c.e.table.NumRows()), "scans", scans)
		if err != nil {
			return err
		}
	}
	sp = c.tr.start(req, parent, "speak.render")
	va, err := speak.Render(c.e.db, in, fs, cost)
	if err != nil {
		sp.end()
		return err
	}
	sp.end("words", va.Words)
	ans.Voice = va
	ans.Stats = st
	return nil
}

// displayedQueries collects the distinct candidate queries a multiplot
// shows, with a candidate-index → position map (the order the
// presentation layer executes them in).
func displayedQueries(cands []core.Candidate, m core.Multiplot) ([]sqldb.Query, map[int]int) {
	var queries []sqldb.Query
	pos := map[int]int{}
	for _, row := range m.Rows {
		for _, pl := range row {
			for _, e := range pl.Entries {
				if _, ok := pos[e.Query]; !ok {
					pos[e.Query] = len(queries)
					queries = append(queries, cands[e.Query].Query)
				}
			}
		}
	}
	return queries, pos
}

// applyResults writes executed values into a copy of the multiplot; an
// empty aggregate shows as NaN.
func applyResults(m core.Multiplot, pos map[int]int, res map[int]merge.Result) core.Multiplot {
	out := core.Multiplot{Rows: make([][]core.Plot, len(m.Rows))}
	for ri, row := range m.Rows {
		for _, pl := range row {
			np := core.Plot{Template: pl.Template, Entries: append([]core.Entry(nil), pl.Entries...)}
			for ei := range np.Entries {
				np.Entries[ei].Value = math.NaN()
				if r := res[pos[np.Entries[ei].Query]]; r.Valid {
					np.Entries[ei].Value = r.Value
				}
			}
			out.Rows[ri] = append(out.Rows[ri], np)
		}
	}
	return out
}

// factQueries lists the candidate queries a fact set speaks for, in
// candidate order (the set speak.Render executes).
func factQueries(in *core.Instance, fs speak.FactSet) []sqldb.Query {
	need := map[int]bool{}
	for _, f := range fs.Facts {
		for _, qi := range f.Covers {
			if qi >= 0 && qi < len(in.Candidates) {
				need[qi] = true
			}
		}
	}
	idxs := make([]int, 0, len(need))
	for qi := range need {
		idxs = append(idxs, qi)
	}
	sort.Ints(idxs)
	queries := make([]sqldb.Query, len(idxs))
	for i, qi := range idxs {
		queries[i] = in.Candidates[qi].Query
	}
	return queries
}

// headline renders the query elements every candidate shares, the text
// shown above a multiplot.
func headline(cands []core.Candidate) string {
	if len(cands) == 0 {
		return ""
	}
	counts := map[string]int{}
	var order []string
	for _, c := range cands {
		var els []string
		for _, a := range c.Query.Aggs {
			els = append(els, a.String())
		}
		for _, p := range c.Query.Preds {
			els = append(els, p.String())
		}
		for _, el := range els {
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
