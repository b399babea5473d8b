package ilp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"muve/internal/procs"
)

// Options configures a Solve call.
type Options struct {
	// Ctx, when non-nil, carries pprof labels (stage, lane, …) onto the
	// subtree worker goroutines so CPU profiles attribute branch-and-
	// bound work to the requesting pipeline stage. It does NOT govern
	// cancellation — Deadline does; label plumbing only.
	Ctx context.Context
	// Deadline aborts the search when reached; the best incumbent found so
	// far is returned with StatusFeasible (or StatusTimeout when none).
	// The zero value means no deadline.
	Deadline time.Time
	// MaxNodes caps the number of branch-and-bound nodes (0 = unlimited).
	// The cap is exact across workers: at most MaxNodes relaxations are
	// solved regardless of parallelism.
	MaxNodes int
	// WarmStart, when non-nil, seeds the incumbent with a known feasible
	// assignment (indexed by VarID). MUVE passes the greedy solution so a
	// timeout can never return something worse than greedy.
	WarmStart []float64
	// Workers caps the subtree workers exploring the frontier (the
	// pure-Go substitute for the Gurobi Threads parameter). 0 means
	// runtime.GOMAXPROCS(0); 1 forces the sequential search. Helpers
	// beyond the calling goroutine start only while every budgeted
	// section in the process (each Solve and each shared scan, see
	// internal/procs) together runs at most GOMAXPROCS goroutines, so a
	// search may run on fewer. A completed search returns the same
	// optimal objective at any worker count; among equal-objective
	// optima the lexicographically smallest discovered assignment wins,
	// so the incumbent is canonical whenever the optimum is unique.
	Workers int
}

// intTol is the integrality tolerance.
const intTol = 1e-6

// Solve minimizes the model objective subject to its constraints via
// LP-relaxation branch & bound over a work-stealing worker pool. Every
// variable must be boxed by finite bounds lo <= hi; Solve returns an
// error naming the first that is not, by its name and index. The returned Solution is never nil
// when err is nil.
func (m *Model) Solve(opt Options) (*Solution, error) {
	if len(m.vars) == 0 {
		return nil, ErrNoModel
	}
	for i, vi := range m.vars {
		if !(vi.lo <= vi.hi) || math.IsInf(vi.lo, 0) || math.IsInf(vi.hi, 0) {
			return nil, fmt.Errorf("ilp: variable %q (#%d) has bounds [%g, %g]; every variable must be boxed by finite bounds lo <= hi", vi.name, i, vi.lo, vi.hi)
		}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The calling goroutine is the search's first worker; helpers come
	// from the process-wide budget and go back when Solve returns.
	helpers := procs.Enter(workers - 1)
	defer procs.Leave(helpers)
	workers = 1 + helpers
	sh := &bbShared{
		model:     m,
		deadline:  opt.Deadline,
		maxNodes:  int64(opt.MaxNodes),
		rootBound: math.Inf(-1),
	}
	sh.objBits.Store(math.Float64bits(math.Inf(1)))
	sh.incOwner.Store(-1)
	sh.complete.Store(true)
	sh.workers = make([]*bbWorker, workers)
	for i := range sh.workers {
		sh.workers[i] = &bbWorker{id: int32(i), sh: sh}
	}
	if opt.WarmStart != nil && m.feasible(opt.WarmStart, 1e-6) {
		sh.incumbent = append([]float64(nil), opt.WarmStart...)
		sh.incObjVal = m.evalObjective(opt.WarmStart)
		sh.objBits.Store(math.Float64bits(sh.incObjVal))
		sh.incumbents.Add(1)
	}

	root := make([]int8, len(m.vars)) // -1 unfixed, 0, 1 for binaries
	for i := range root {
		root[i] = -1
	}

	// Seed phase, single-threaded on worker 0: process the root, then
	// expand the frontier best-first (lowest parent bound first) until
	// there is enough independent work to hand out. Small models usually
	// finish entirely inside this phase and never start the helpers.
	w0 := sh.workers[0]
	var seed []bbNode
	w0.process(bbNode{fixed: root, bound: math.Inf(-1)}, &seed, true)
	if workers > 1 {
		for len(seed) > 0 && len(seed) < 2*workers && !sh.stopped.Load() {
			best := 0
			for i := 1; i < len(seed); i++ {
				if seed[i].bound < seed[best].bound {
					best = i
				}
			}
			nd := seed[best]
			seed[best] = seed[len(seed)-1]
			seed = seed[:len(seed)-1]
			sh.pending.Add(-1)
			w0.process(nd, &seed, false)
		}
	}

	ran := 1 // a search that ends in the seed phase ran on one goroutine
	if len(seed) > 0 && !sh.stopped.Load() {
		ran = workers
		// Deal the frontier out worst-bound first so every worker's deque
		// ends with (and therefore pops first) its most promising node.
		sort.Slice(seed, func(i, j int) bool { return seed[i].bound > seed[j].bound })
		for i, nd := range seed {
			w := sh.workers[i%workers]
			w.deque = append(w.deque, nd)
		}
		var wg sync.WaitGroup
		for _, w := range sh.workers[1:] {
			wg.Add(1)
			go func(w *bbWorker) {
				defer wg.Done()
				// Re-apply the caller's pprof labels: goroutines inherit
				// labels from their spawner, but Solve may be dispatched
				// from a pool goroutine that never carried them — the
				// context is the reliable carrier.
				if opt.Ctx != nil {
					pprof.Do(opt.Ctx, pprof.Labels(), func(context.Context) { w.run() })
				} else {
					w.run()
				}
			}(w)
		}
		w0.run()
		wg.Wait()
	}

	lpSolves, simplexIters := 0, 0
	for _, w := range sh.workers {
		lpSolves += w.lpSolves
		simplexIters += w.simplexIters
	}
	sol := &Solution{
		Nodes:        int(sh.nodes.Load()),
		LPSolves:     lpSolves,
		SimplexIters: simplexIters,
		Incumbents:   int(sh.incumbents.Load()),
		Workers:      ran,
		Steals:       int(sh.steals.Load()),
		SharedPrunes: int(sh.sharedPrunes.Load()),
	}
	complete := sh.complete.Load()
	switch {
	case sh.incumbent == nil && complete:
		sol.Status = StatusInfeasible
		sol.Bound = math.Inf(1)
	case sh.incumbent == nil:
		sol.Status = StatusTimeout
		sol.Bound = sh.rootBound
	case complete:
		sol.Status = StatusOptimal
		sol.Objective = sh.incObjVal
		sol.Values = sh.incumbent
		sol.Bound = sh.incObjVal
	default:
		sol.Status = StatusFeasible
		sol.Objective = sh.incObjVal
		sol.Values = sh.incumbent
		sol.Bound = sh.rootBound
	}
	if sol.Values != nil {
		cleanIntegers(m, sol.Values)
	}
	return sol, nil
}

// bbNode is one frontier entry: a partial assignment plus what its
// parent's relaxation proved about the subtree underneath it.
type bbNode struct {
	fixed []int8
	// bound is the parent LP objective, a valid lower bound for the whole
	// subtree; nodes whose bound cannot beat the incumbent are dropped at
	// pop time without paying an LP solve.
	bound float64
}

// bbShared is the state all workers of one Solve call share.
type bbShared struct {
	model    *Model
	deadline time.Time
	maxNodes int64

	// Incumbent: objBits mirrors the incumbent objective as float bits
	// for lock-free bound checks on the hot path; mu guards the actual
	// solution swap and the exact objective value.
	objBits   atomic.Uint64
	incOwner  atomic.Int32 // worker that produced the incumbent; -1 = warm start
	mu        sync.Mutex
	incumbent []float64
	incObjVal float64

	stopped  atomic.Bool // deadline or node cap hit: wind down
	complete atomic.Bool // false once any subtree was abandoned unproven
	pending  atomic.Int64

	nodes        atomic.Int64
	incumbents   atomic.Int64
	steals       atomic.Int64
	sharedPrunes atomic.Int64

	// rootBound is written during the single-threaded seed phase only.
	rootBound float64

	workers []*bbWorker
}

// incObj returns the current incumbent objective without locking.
func (sh *bbShared) incObj() float64 { return math.Float64frombits(sh.objBits.Load()) }

// halt stops the search without a completeness proof.
func (sh *bbShared) halt() {
	sh.complete.Store(false)
	sh.stopped.Store(true)
}

// offer proposes x (model-space, feasible, objective obj) as the new
// incumbent. Strict improvements always win; ties within 1e-9 go to the
// lexicographically smaller assignment so a completed search reports a
// canonical incumbent regardless of worker count or discovery order.
func (sh *bbShared) offer(x []float64, obj float64, owner int32) {
	if obj > sh.incObj()+1e-9 {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.incObjVal
	if sh.incumbent == nil {
		cur = math.Inf(1)
	}
	switch {
	case obj < cur-1e-9:
	case obj <= cur+1e-9 && sh.incumbent != nil && lexLess(x, sh.incumbent):
	default:
		return
	}
	sh.incumbent = append(sh.incumbent[:0], x...)
	sh.incObjVal = obj
	// The pruning bound only ever tightens: on a lexicographic tie keep
	// the smaller of the two (equal within 1e-9) objectives.
	if bits := math.Float64bits(obj); obj < math.Float64frombits(sh.objBits.Load()) {
		sh.objBits.Store(bits)
	}
	sh.incOwner.Store(owner)
	sh.incumbents.Add(1)
}

// lexLess orders assignments lexicographically with a small tolerance,
// the canonical tie-break among equal-objective incumbents.
func lexLess(a, b []float64) bool {
	for i := range a {
		switch d := a[i] - b[i]; {
		case d < -1e-9:
			return true
		case d > 1e-9:
			return false
		}
	}
	return false
}

// bbWorker explores subtrees from a private LIFO deque (depth-first
// locality, like the old recursion) and steals the shallowest node of a
// victim's deque when its own runs dry. It re-solves every node it
// processes on its own live tableau.
type bbWorker struct {
	id int32
	sh *bbShared

	mu    sync.Mutex
	deque []bbNode

	lp        *boxLP
	xr        []float64 // rounding heuristic buffer
	freeFixed [][]int8
	tick      int

	lpSolves     int
	simplexIters int
}

// push appends a node to the worker's own deque.
func (w *bbWorker) push(nd bbNode) {
	w.sh.pending.Add(1)
	w.mu.Lock()
	w.deque = append(w.deque, nd)
	w.mu.Unlock()
}

// pop takes the newest node (deepest, owner side).
func (w *bbWorker) pop() (bbNode, bool) {
	w.mu.Lock()
	n := len(w.deque)
	if n == 0 {
		w.mu.Unlock()
		return bbNode{}, false
	}
	nd := w.deque[n-1]
	w.deque[n-1] = bbNode{}
	w.deque = w.deque[:n-1]
	w.mu.Unlock()
	return nd, true
}

// stealFrom takes the oldest node (shallowest, largest subtree) from a
// victim's deque.
func (w *bbWorker) stealFrom(victim *bbWorker) (bbNode, bool) {
	victim.mu.Lock()
	n := len(victim.deque)
	if n == 0 {
		victim.mu.Unlock()
		return bbNode{}, false
	}
	nd := victim.deque[0]
	copy(victim.deque, victim.deque[1:])
	victim.deque[n-1] = bbNode{}
	victim.deque = victim.deque[:n-1]
	victim.mu.Unlock()
	return nd, true
}

// run drains work until the search stops or the global frontier is
// empty (pending counts queued plus in-flight nodes, so zero means the
// whole tree is either explored or pruned).
func (w *bbWorker) run() {
	sh := w.sh
	idle := 0
	for {
		if sh.stopped.Load() {
			return
		}
		nd, ok := w.pop()
		if !ok {
			for i := 1; i < len(sh.workers) && !ok; i++ {
				victim := sh.workers[(int(w.id)+i)%len(sh.workers)]
				nd, ok = w.stealFrom(victim)
			}
			if ok {
				sh.steals.Add(1)
			}
		}
		if !ok {
			if sh.pending.Load() == 0 {
				return
			}
			idle++
			if idle < 8 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		idle = 0
		w.process(nd, nil, false)
		sh.pending.Add(-1)
	}
}

// checkLimits reports whether the search should stop. The stop flag is
// checked on every node; the wall clock only every 64 nodes — a
// time.Now syscall per node is measurable on small instances and worse
// with many workers.
func (w *bbWorker) checkLimits() bool {
	sh := w.sh
	if sh.stopped.Load() {
		return true
	}
	hit := false
	if !sh.deadline.IsZero() && w.tick&deadlineCheckMask == 0 && time.Now().After(sh.deadline) {
		sh.halt()
		hit = true
	}
	w.tick++
	return hit
}

// process expands one node: bound-prune, solve the relaxation, adopt an
// integral optimum, or branch. Children land on the worker's own deque,
// or in seedQ during the single-threaded best-first seed phase.
func (w *bbWorker) process(nd bbNode, seedQ *[]bbNode, isRoot bool) {
	sh := w.sh
	// Re-check the parent bound against the global incumbent: it may
	// have tightened since this node was queued.
	if nd.bound >= sh.incObj()-1e-9 {
		if o := sh.incOwner.Load(); o >= 0 && o != w.id {
			sh.sharedPrunes.Add(1)
		}
		w.releaseFixed(nd.fixed)
		return
	}
	if w.checkLimits() {
		w.releaseFixed(nd.fixed)
		return
	}
	// Exact node accounting across workers: reserve a node slot, give it
	// back when over the cap so reported Nodes never exceeds MaxNodes.
	if sh.maxNodes > 0 {
		if sh.nodes.Add(1) > sh.maxNodes {
			sh.nodes.Add(-1)
			sh.halt()
			w.releaseFixed(nd.fixed)
			return
		}
	} else {
		sh.nodes.Add(1)
	}
	if w.lp == nil {
		w.lp = newBoxLP(sh.model)
	}
	x, obj, st := w.lp.solve(nd.fixed, sh.deadline)
	w.lpSolves++
	w.simplexIters += w.lp.iters
	switch st {
	case lpInfeasible:
		w.releaseFixed(nd.fixed)
		return
	case lpAborted:
		sh.complete.Store(false)
		// An aborted relaxation usually means the deadline passed; poll
		// it immediately so the rest of the pool winds down too.
		if !sh.deadline.IsZero() && time.Now().After(sh.deadline) {
			sh.halt()
		}
		w.releaseFixed(nd.fixed)
		return
	}
	if isRoot {
		sh.rootBound = obj
	}
	if obj >= sh.incObj()-1e-9 {
		if o := sh.incOwner.Load(); o >= 0 && o != w.id {
			sh.sharedPrunes.Add(1)
		}
		w.releaseFixed(nd.fixed)
		return
	}
	// Find the fractional binary with the highest branching priority,
	// breaking ties by fractionality.
	branchVar := -1
	bestFrac := intTol
	bestPri := 0
	for i, vi := range sh.model.vars {
		if !vi.integer || nd.fixed[i] >= 0 {
			continue
		}
		f := math.Abs(x[i] - math.Round(x[i]))
		if f <= intTol {
			continue
		}
		if branchVar == -1 || vi.priority > bestPri ||
			(vi.priority == bestPri && f > bestFrac) {
			bestPri = vi.priority
			bestFrac = f
			branchVar = i
		}
	}
	if branchVar == -1 {
		// Integral solution: candidate incumbent, once it passes the same
		// model check as a rounded point.
		if sh.model.feasible(x, 1e-6) {
			sh.offer(x, obj, w.id)
		}
		w.releaseFixed(nd.fixed)
		return
	}
	// Rounding heuristic: try the nearest-integer rounding as an incumbent
	// before descending, so timeouts still surface something feasible.
	w.tryRounding(x, nd.fixed)
	// Dive toward the fractional value's rounding first: push the away
	// branch below it so the owner's LIFO pop explores the rounding
	// side, while a thief stealing from the other end gets the subtree
	// the owner would visit last.
	first := int8(math.Round(x[branchVar]))
	away := w.newFixed(nd.fixed)
	away[branchVar] = 1 - first
	toward := w.newFixed(nd.fixed)
	toward[branchVar] = first
	w.releaseFixed(nd.fixed)
	if seedQ != nil {
		sh.pending.Add(2)
		*seedQ = append(*seedQ, bbNode{fixed: away, bound: obj},
			bbNode{fixed: toward, bound: obj})
		return
	}
	w.push(bbNode{fixed: away, bound: obj})
	w.push(bbNode{fixed: toward, bound: obj})
}

// tryRounding rounds the LP solution to integers and offers it as an
// incumbent when feasible.
func (w *bbWorker) tryRounding(x []float64, fixed []int8) {
	m := w.sh.model
	if w.xr == nil {
		w.xr = make([]float64, len(x))
	}
	r := w.xr
	copy(r, x)
	for i, vi := range m.vars {
		if vi.integer {
			if fixed[i] >= 0 {
				r[i] = float64(fixed[i])
			} else {
				r[i] = math.Round(r[i])
			}
		}
	}
	if !m.feasible(r, 1e-7) {
		return
	}
	w.sh.offer(r, m.evalObjective(r), w.id)
}

// newFixed copies a fixing vector, reusing the worker's freelist.
func (w *bbWorker) newFixed(src []int8) []int8 {
	var f []int8
	if n := len(w.freeFixed); n > 0 {
		f = w.freeFixed[n-1]
		w.freeFixed = w.freeFixed[:n-1]
	} else {
		f = make([]int8, len(src))
	}
	copy(f, src)
	return f
}

// releaseFixed returns a fixing vector to the freelist.
func (w *bbWorker) releaseFixed(f []int8) {
	if f != nil && len(w.freeFixed) < 64 {
		w.freeFixed = append(w.freeFixed, f)
	}
}

// cleanIntegers snaps integer variables to exact integral values.
func cleanIntegers(m *Model, x []float64) {
	for i, vi := range m.vars {
		if vi.integer {
			x[i] = math.Round(x[i])
		}
	}
}
