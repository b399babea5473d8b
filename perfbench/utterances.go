package main

import (
	"math/rand"

	"muve/internal/sqldb"
	"muve/internal/workload"
)

// utterances hands out seeded utterances drawn from the workload
// package's query generator (a random aggregate with up to maxPreds
// equality predicates, rendered as spoken text).
//
// By default every utterance is new. With cycle set, the source first
// collects every distinct utterance the generator can produce — the
// whole population, which must be small — and then hands it out in a
// seeded order, pass after pass. A workload whose cost is concentrated
// in a few dozen rare questions (the ILP on one-predicate COUNT
// questions) is only steady from run to run when every run asks all of
// them.
type utterances struct {
	gen      *workload.QueryGen
	maxPreds int
	seen     map[string]bool

	pop  []string
	next int
}

// populationPatience is how many consecutive draws without a new
// utterance end the collection of a population.
const populationPatience = 20_000

func newUtterances(t *sqldb.Table, seed int64, maxPreds int, cycle bool) *utterances {
	rng := rand.New(rand.NewSource(seed))
	u := &utterances{
		gen:      workload.NewQueryGen(t, rng),
		maxPreds: maxPreds,
		seen:     map[string]bool{},
	}
	if cycle {
		for misses := 0; misses < populationPatience; {
			if s := u.draw(); s != "" {
				u.pop = append(u.pop, s)
				misses = 0
			} else {
				misses++
			}
		}
		rng.Shuffle(len(u.pop), func(i, j int) { u.pop[i], u.pop[j] = u.pop[j], u.pop[i] })
	}
	return u
}

// draw generates one utterance, returning "" when it was seen before.
func (u *utterances) draw() string {
	s := workload.Utterance(u.gen.Random(u.maxPreds))
	if u.seen[s] {
		return ""
	}
	u.seen[s] = true
	return s
}

// get returns the next utterance.
func (u *utterances) get() string {
	if u.pop != nil {
		s := u.pop[u.next%len(u.pop)]
		u.next++
		return s
	}
	for {
		if s := u.draw(); s != "" {
			return s
		}
	}
}

// take returns the next n utterances.
func (u *utterances) take(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = u.get()
	}
	return out
}
