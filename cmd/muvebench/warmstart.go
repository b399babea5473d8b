package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"muve/internal/core"
	"muve/internal/nlq"
	"muve/internal/sqldb"
	"muve/internal/usermodel"
	"muve/internal/workload"
)

// warmCostEps tolerates floating-point noise when comparing multiplot
// costs across warm and cold runs of the same instance.
const warmCostEps = 1e-6

// warmstartReport is the machine-readable summary of a warm-start
// replay, written to -warmstart-json so CI can track the speedup.
type warmstartReport struct {
	Seed       int64           `json:"seed"`
	Utterances int             `json:"utterances"`
	BudgetMS   float64         `json:"budget_ms"`
	PerUtt     []warmUtterance `json:"per_utterance"`
	// Totals cover utterances 2..N — the first has no prior to warm
	// from, so both arms are identical there by construction.
	ColdTimeToCostMS float64 `json:"cold_time_to_cost_ms"`
	WarmTimeToCostMS float64 `json:"warm_time_to_cost_ms"`
	ColdCost         float64 `json:"cold_cost_total"`
	WarmCost         float64 `json:"warm_cost_total"`
	Pass             bool    `json:"pass"`
}

// warmUtterance compares the cold and warm arm on one utterance.
// TimeToCost is when a run first reached the cold arm's final cost, so
// the two arms are measured against the same quality bar.
type warmUtterance struct {
	Utterance      string  `json:"utterance"`
	Candidates     int     `json:"candidates"`
	ColdCost       float64 `json:"cold_cost"`
	WarmCost       float64 `json:"warm_cost"`
	ColdTimeToCost float64 `json:"cold_time_to_cost_ms"`
	WarmTimeToCost float64 `json:"warm_time_to_cost_ms"`
	WarmStart      string  `json:"warm_start"`
}

// runWarmstart replays a voice session — a base query refined by
// follow-up utterances that tweak one predicate, the paper's "...and in
// queens" pattern — through incremental ILP planning twice: a cold arm
// that starts every utterance from scratch, and a warm arm whose solver
// is seeded with the previous utterance's multiplot. It fails (non-zero
// exit) unless, summed over the follow-up utterances, the warm arm
// reaches the cold arm's final cost in less solver time at equal or
// better final cost — the contract `make warmstart-smoke` gates CI on.
func runWarmstart(seed int64, utterances int, budget time.Duration, jsonPath string) error {
	if utterances < 2 {
		utterances = 2
	}
	if budget <= 0 {
		budget = 400 * time.Millisecond
	}
	tbl, err := workload.Build(workload.NYC311, 20_000, seed)
	if err != nil {
		return err
	}
	cat := nlq.BuildCatalog(tbl, 0)
	gen := nlq.NewGenerator(cat)
	// Both arms start every solve from the greedy floor, so only the
	// prior separates them. The instance must be hard enough that the
	// cold arm does not converge within the first sequences: on a small
	// one (12 candidates, 480 px × 1 row) the cold arm converges about
	// as fast as the warm one and the verdict is a coin flip.
	gen.MaxCandidates = 32
	rng := rand.New(rand.NewSource(seed))
	queries := sessionQueries(tbl, rng, utterances)
	screen := core.Screen{WidthPx: 1440, Rows: 3, PxPerBar: 48, PxPerChar: 7}

	rep := warmstartReport{Seed: seed, Utterances: utterances, BudgetMS: ms(budget)}
	var prior *core.Multiplot
	for i, q := range queries {
		cands, err := gen.Candidates(q)
		if err != nil {
			return err
		}
		in := &core.Instance{Candidates: cands, Screen: screen, Model: usermodel.DefaultModel()}

		coldM, coldStats, coldUpd, err := replaySolve(in, budget, nil)
		if err != nil {
			return err
		}
		var warmM core.Multiplot
		warmStats := coldStats
		warmUpd := coldUpd
		if prior != nil {
			warmM, warmStats, warmUpd, err = replaySolve(in, budget, prior)
			if err != nil {
				return err
			}
		} else {
			warmM = coldM
		}

		u := warmUtterance{
			Utterance:      workload.Utterance(q),
			Candidates:     len(cands),
			ColdCost:       coldStats.Cost,
			WarmCost:       warmStats.Cost,
			ColdTimeToCost: ms(timeToCost(coldUpd, coldStats.Cost)),
			WarmTimeToCost: ms(timeToCost(warmUpd, coldStats.Cost)),
			WarmStart:      string(warmStats.WarmStart),
		}
		rep.PerUtt = append(rep.PerUtt, u)
		if i > 0 {
			rep.ColdTimeToCostMS += u.ColdTimeToCost
			rep.WarmTimeToCostMS += u.WarmTimeToCost
			rep.ColdCost += u.ColdCost
			rep.WarmCost += u.WarmCost
		}
		// The warm arm's own answer is the next utterance's prior,
		// exactly as muveserver's session state would carry it.
		prev := warmM
		prior = &prev
	}
	// The warm arm passes when it never ends an utterance at a worse
	// cost, and either reached the cold arm's quality bar in less total
	// solver time or beat its quality outright (a strictly better final
	// cost means the warm arm spent its budget past the bar the
	// time-to-cost metric stops at).
	costWorse := false
	for _, u := range rep.PerUtt[1:] {
		if u.WarmCost > u.ColdCost+warmCostEps {
			costWorse = true
		}
	}
	rep.Pass = !costWorse &&
		(rep.WarmTimeToCostMS < rep.ColdTimeToCostMS || rep.WarmCost < rep.ColdCost-warmCostEps)

	writeWarmstartText(os.Stdout, rep)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwarm-start report written to %s\n", jsonPath)
	}
	if !rep.Pass {
		return fmt.Errorf("warm start regressed: time-to-cost warm %.1fms vs cold %.1fms, cost warm %.3f vs cold %.3f",
			rep.WarmTimeToCostMS, rep.ColdTimeToCostMS, rep.WarmCost, rep.ColdCost)
	}
	return nil
}

// sessionQueries draws the session's utterance sequence: one random
// base aggregation query, then follow-ups that each change a single
// predicate constant to another value of the same column — consecutive
// instances therefore share most of their phonetic candidate sets, the
// regime warm-starting targets.
func sessionQueries(tbl *sqldb.Table, rng *rand.Rand, n int) []sqldb.Query {
	qgen := workload.NewQueryGen(tbl, rng)
	base := qgen.Random(2)
	for len(base.Preds) == 0 {
		base = qgen.Random(2)
	}
	values := map[string][]string{}
	for _, c := range tbl.Columns() {
		if c.Kind == sqldb.KindString {
			values[c.Name] = c.DistinctStrings()
		}
	}
	out := []sqldb.Query{base}
	for len(out) < n {
		q := base
		q.Preds = append([]sqldb.Predicate(nil), base.Preds...)
		pi := rng.Intn(len(q.Preds))
		vals := values[q.Preds[pi].Col]
		if len(vals) > 1 {
			q.Preds[pi].Values = []sqldb.Value{sqldb.Str(vals[rng.Intn(len(vals))])}
		}
		out = append(out, q)
		base = q
	}
	return out
}

// replaySolve runs one incremental solve, capturing the emitted update
// trail so time-to-cost can be read off afterwards.
func replaySolve(in *core.Instance, budget time.Duration, hint *core.Multiplot) (core.Multiplot, core.Stats, []core.Update, error) {
	inc := &core.IncrementalILP{TotalBudget: budget, Hint: hint}
	var updates []core.Update
	m, st, err := inc.Solve(in, func(u core.Update) { updates = append(updates, u) })
	return m, st, updates, err
}

// timeToCost reports when a run first emitted a multiplot at least as
// good as target; a run that never got there is charged its full
// duration.
func timeToCost(updates []core.Update, target float64) time.Duration {
	for _, u := range updates {
		if u.Cost <= target+warmCostEps {
			return u.Elapsed
		}
	}
	if len(updates) > 0 {
		return updates[len(updates)-1].Elapsed
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func writeWarmstartText(w io.Writer, rep warmstartReport) {
	fmt.Fprintf(w, "==== warm-start session replay ====\n\n")
	fmt.Fprintf(w, "seed: %d  utterances: %d  budget: %.0fms per utterance\n\n", rep.Seed, rep.Utterances, rep.BudgetMS)
	fmt.Fprintf(w, "%-4s %-11s %10s %10s %10s %10s %6s\n",
		"#", "warm-start", "cold-cost", "warm-cost", "cold-ms", "warm-ms", "cands")
	for i, u := range rep.PerUtt {
		tag := u.WarmStart
		if tag == "" {
			tag = "(first)"
		}
		fmt.Fprintf(w, "%-4d %-11s %10.3f %10.3f %10.1f %10.1f %6d\n",
			i+1, tag, u.ColdCost, u.WarmCost, u.ColdTimeToCost, u.WarmTimeToCost, u.Candidates)
	}
	fmt.Fprintf(w, "\nfollow-up totals: time-to-cold-cost warm %.1fms vs cold %.1fms, cost warm %.3f vs cold %.3f\n",
		rep.WarmTimeToCostMS, rep.ColdTimeToCostMS, rep.WarmCost, rep.ColdCost)
	if rep.Pass {
		fmt.Fprintf(w, "PASS: warm start reached the cold arm's quality in less solver time\n")
	} else {
		fmt.Fprintf(w, "FAIL: warm start did not beat cold\n")
	}
}
