// Command perfbench is MUVE's end-to-end benchmark. It answers seeded
// utterance workloads through the system's real entry points —
// muve.System.AskContext / AskVoiceContext followed by Answer.SVG, or
// serve.Engine.Do for the served workload — checks every answer against
// the row-at-a-time executor and the paper's cost model, and prints one
// JSON result line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload flights-scan --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics (setup_s,
// heap_mb, ask_p50_ms, ask_p95_ms, answers_per_s, answer_cost_ms). With
// --trace 1 it instead composes every answer from outside, calling the
// layers in Ask's order (nlq → core → merge → sqldb → viz, or speak for
// voice), times each call as a span, checks that the composed answer
// equals Ask's, and reports per-layer metrics. Spans are kept in memory
// and written to --spans-dir when the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
		seed     = fs.Int64("seed", 1, "seed for the generated utterances and arrivals")
		seconds  = fs.Float64("seconds", 10, "measured duration of the run in seconds")
		trace    = fs.Int("trace", 0, "0 reports end-to-end metrics, 1 runs the traced composition and reports per-layer metrics")
		commit   = fs.String("commit", "unknown", "source revision stamped on the result")
		spansDir = fs.String("spans-dir", "", "directory the traced run writes its spans to (empty: keep them in memory only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s)", *name, strings.Join(workloadNames(), "|"))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	o := defaultOptions()
	o.seed = *seed
	o.duration = time.Duration(*seconds * float64(time.Second))
	o.traced = *trace == 1
	o.spansDir = *spansDir

	res, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	fmt.Printf("host numcpu=%d gomaxprocs=%d go=%s commit=%s seed=%d workload=%s trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit, *seed, w.name, *trace)
	fmt.Printf("counts attempted=%d succeeded=%d failed=%d samples=%d\n",
		res.attempted, res.attempted-res.failed, res.failed, res.samples)
	for _, note := range res.notes {
		fmt.Println(note)
	}
	for _, msg := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	line, err := resultLine(res)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	attempted int
	failed    int
	// samples is the number of latency samples behind the percentiles.
	samples int
	// problems describes the first few failed operations.
	problems []string
	// notes are informational lines printed before the result.
	notes   []string
	metrics map[string]metric
}

// fail records one failed operation, keeping the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// set records a metric.
func (r *result) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// resultLine renders the final JSON object the driver parses.
func resultLine(res *result) (string, error) {
	for n, m := range res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is not finite (%v)", n, m.Value)
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, res.metrics}
	b, err := json.Marshal(out)
	return string(b), err
}
