package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime/pprof"
	"sync"
	"time"

	"muve/internal/obs"
	"muve/internal/resilience"
	"muve/internal/serve"
	"muve/internal/sqldb"
	"muve/internal/workload"
)

// sloReport is the machine-readable summary of an SLO replay, written
// to -slo-json so CI can gate on burn rates and incident capture.
type sloReport struct {
	Spec      string          `json:"spec"`
	Chaos     string          `json:"chaos,omitempty"`
	Seed      int64           `json:"seed"`
	Requests  int             `json:"requests"`
	Workers   int             `json:"workers"`
	Answered  int             `json:"answered"`
	Shed      int             `json:"shed_503"`
	Escaped   int             `json:"escaped"`
	Trips     []obs.Trip      `json:"trips"`
	Incidents []*obs.Incident `json:"incidents"`
	Report    obs.Report      `json:"slo"`
}

// runSLO replays a workload through the full serving engine — optionally
// under fault injection — while the SLO engine watches every finished
// trace, and prints the windowed-latency and burn-rate report. Burn-rate
// trips fire the incident flight recorder exactly as in muveserver; with
// -slo-expect-incidents N the run fails unless at least N bundles were
// captured, which is how `make slo-smoke` proves the trip→capture path
// end to end. Any request that neither answers nor sheds with 503 is
// an escape and fails the run, as in the chaos harness.
func runSLO(spec, chaosSpec string, seed int64, requests, workers int, burn float64, expectIncidents int, jsonPath, profilePath string) error {
	objectives, err := obs.ParseObjectives(spec)
	if err != nil {
		return err
	}
	if len(objectives) == 0 {
		return fmt.Errorf("-slo %q parsed to no objectives", spec)
	}
	var ch *resilience.Chaos
	if chaosSpec != "" {
		if ch, err = resilience.ParseChaos(chaosSpec, seed); err != nil {
			return err
		}
	}
	if requests <= 0 {
		requests = 1
	}
	if workers <= 0 {
		workers = 8
	}

	tbl, err := workload.Build(workload.NYC311, 20_000, seed)
	if err != nil {
		return err
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	engine, err := ladderEngine(db, tbl.Name, chaosConfig(ch, workers))
	if err != nil {
		return err
	}

	ring := obs.NewRing(64)
	var recorder *obs.Recorder // late-bound into OnTrip, built just below
	var tripMu sync.Mutex
	var trips []obs.Trip
	slo := obs.NewSLO(obs.SLOConfig{
		Objectives:    objectives,
		SlotDur:       time.Second,
		BurnThreshold: burn,
		Cooldown:      time.Second,
		OnTrip: func(t obs.Trip) {
			tripMu.Lock()
			trips = append(trips, t)
			tripMu.Unlock()
			if recorder != nil {
				recorder.Trigger("slo-trip:" + t.Objective)
			}
		},
	})
	recorder = obs.NewRecorder(obs.RecorderConfig{
		Capacity:        8,
		ProfileDuration: 250 * time.Millisecond,
		Cooldown:        time.Second,
		Metrics: func() []byte {
			var b bytes.Buffer
			engine.Metrics().WriteProm(&b)
			return b.Bytes()
		},
		State:  func() any { return slo.Report() },
		Traces: ring,
	})

	if profilePath != "" {
		// A replay-wide CPU profile: its samples carry the stage/lane/
		// mode/rung pprof labels, so `go tool pprof -tags` decomposes
		// solver time by pipeline stage. While it runs, incident bundles
		// forfeit their own CPU part (one profiler slot per process) and
		// note why in Err.
		f, err := os.Create(profilePath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("\ncpu profile written to %s (try: go tool pprof -tags %s)\n", profilePath, profilePath)
		}()
	}

	rng := rand.New(rand.NewSource(seed))
	gen := workload.NewQueryGen(tbl, rng)
	utterances := make([]string, 24)
	for i := range utterances {
		utterances[i] = workload.Utterance(gen.Random(2))
	}

	// Objectives are evaluated continuously while the replay runs, like
	// muveserver's slo.Run goroutine, so trips fire mid-incident (when a
	// capture is worth something) rather than post-mortem.
	checkCtx, stopChecks := context.WithCancel(context.Background())
	var checkWG sync.WaitGroup
	checkWG.Add(1)
	go func() {
		defer checkWG.Done()
		slo.Run(checkCtx, 100*time.Millisecond)
	}()

	var rep sloReport
	rep.Spec, rep.Chaos, rep.Seed, rep.Requests, rep.Workers = spec, chaosSpec, seed, requests, workers
	var outMu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				req := serve.Request{
					Transcript: utterances[i%len(utterances)],
					Batch:      i%4 == 3,
				}
				tr := obs.NewTrace("replay")
				tr.ID = fmt.Sprintf("req-%d", i)
				ctx := obs.WithTrace(context.Background(), tr)
				_, err := engine.Do(ctx, req)
				tr.Finish()
				slo.ObserveTrace(tr)
				ring.Add(tr)
				outMu.Lock()
				switch serve.StatusOf(err) {
				case 200:
					rep.Answered++
				case 503:
					rep.Shed++
				default:
					// As in the chaos harness: anything but an answer
					// or a 503 shed escaped, a 429 included.
					rep.Escaped++
				}
				outMu.Unlock()
			}
		}()
	}
	for i := 0; i < requests; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	stopChecks()
	checkWG.Wait()
	slo.Check() // final evaluation so a breach at the very end still trips
	recorder.Wait()

	tripMu.Lock()
	rep.Trips = append([]obs.Trip(nil), trips...)
	tripMu.Unlock()
	rep.Incidents = recorder.Incidents()
	rep.Report = slo.Report()

	writeSLOText(os.Stdout, rep)
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
		fmt.Printf("\nslo report written to %s\n", jsonPath)
	}
	if rep.Escaped > 0 {
		return fmt.Errorf("%d request(s) neither answered nor shed with 503", rep.Escaped)
	}
	if len(rep.Report.Objectives) != len(objectives) {
		return fmt.Errorf("malformed report: %d objectives evaluated, want %d", len(rep.Report.Objectives), len(objectives))
	}
	if got := len(rep.Incidents); got < expectIncidents {
		return fmt.Errorf("expected at least %d incident bundle(s), recorder captured %d", expectIncidents, got)
	}
	return nil
}

func writeSLOText(w io.Writer, rep sloReport) {
	fmt.Fprintf(w, "==== slo replay ====\n\n")
	fmt.Fprintf(w, "objectives: %q  chaos: %q  seed: %d  requests: %d  workers: %d\n",
		rep.Spec, rep.Chaos, rep.Seed, rep.Requests, rep.Workers)
	fmt.Fprintf(w, "answered: %d  shed-503: %d  escaped: %d\n\n", rep.Answered, rep.Shed, rep.Escaped)
	rep.Report.WriteText(w)
	fmt.Fprintf(w, "\ntrips: %d\n", len(rep.Trips))
	for _, t := range rep.Trips {
		fmt.Fprintf(w, "  %s fast=%.1f slow=%.1f\n", t.Objective, t.FastBurn, t.SlowBurn)
	}
	fmt.Fprintf(w, "incident bundles: %d\n", len(rep.Incidents))
	for _, inc := range rep.Incidents {
		fmt.Fprintf(w, "  %s %s cpu=%dB repeats=%d", inc.ID, inc.Reason, inc.CPUBytes, inc.Repeats)
		if inc.Err != "" {
			fmt.Fprintf(w, " err=%q", inc.Err)
		}
		fmt.Fprintln(w)
	}
}
