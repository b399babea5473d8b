package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// shortOptions shrinks a run to a fraction of a second over small
// tables.
func shortOptions(traced bool) options {
	o := defaultOptions()
	o.seed = 1
	o.duration = 300 * time.Millisecond
	o.traced = traced
	o.rowScale = 0.02
	o.setups = 1
	o.setupBudget = 0
	o.warmup = 1
	o.pool = 64
	o.cacheCap = 16
	return o
}

// declared reads the workloads and metric units BENCHMARK.json declares.
func declared(t *testing.T) (names []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return names, endToEnd, perLayer
}

// TestShortModeEmitsEveryMetric runs every workload briefly, untraced and
// traced, and checks that the result line carries exactly the metrics
// BENCHMARK.json declares, with their units, and that every answer
// passed its checks.
func TestShortModeEmitsEveryMetric(t *testing.T) {
	names, endToEnd, perLayer := declared(t)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark runs %v", names, workloadNames())
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			res, err := runWorkload(w, shortOptions(traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.name, traced, res.failed, res.attempted, res.problems)
			}
			line, err := resultLine(res)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var out struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatalf("%s traced=%v: result line %q: %v", w.name, traced, line, err)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(out.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := out.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, name, m, unit)
				}
			}
			if !traced {
				for name, m := range out.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

// spokenNumber finds a whole number spoken after "is" at the end of a
// sentence.
var spokenNumber = regexp.MustCompile(` is [0-9]+\.( |$)`)

// firstAnswer asks utterances of workload name until one has something
// to corrupt: a bar (plot) or a spoken value fact (voice).
func firstAnswer(t *testing.T, name string) (*env, string) {
	t.Helper()
	w, _ := workloadByName(name)
	e, err := setup(w, shortOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	u := newUtterances(e.table, 1, w.maxPreds, w.cycle)
	for i := 0; i < 50; i++ {
		text := u.get()
		ans, _, err := e.ask(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Multiplot.NumPlots() > 0 || (ans.Voice != nil && spokenNumber.MatchString(ans.Voice.Transcript)) {
			return e, text
		}
	}
	t.Fatalf("%s: no answer with a bar or a spoken value in 50 utterances", name)
	return nil, ""
}

// TestCheckRejectsCorruptedValue flips one shown bar value by one ulp,
// one spoken digit, and turns a spoken whole number into a fraction with
// the same leading digits; the answer check must catch all three.
func TestCheckRejectsCorruptedValue(t *testing.T) {
	e, text := firstAnswer(t, "flights-scan")
	ans, _, _ := e.ask(context.Background(), text)
	c := e.checker()
	if _, err := c.check(text, ans); err != nil {
		t.Fatalf("intact answer rejected: %v", err)
	}
	bar := &ans.Multiplot.Rows[0][0].Entries[0]
	if math.IsNaN(bar.Value) {
		bar.Value = 0
	} else {
		bar.Value = math.Nextafter(bar.Value, math.Inf(1))
	}
	if _, err := c.check(text, ans); err == nil {
		t.Fatal("answer with a corrupted bar value passed the check")
	}

	e, text = firstAnswer(t, "dob-voice")
	ans, _, _ = e.ask(context.Background(), text)
	c = e.checker()
	if _, err := c.check(text, ans); err != nil {
		t.Fatalf("intact voice answer rejected: %v", err)
	}
	tr := ans.Voice.Transcript
	loc := spokenNumber.FindStringIndex(tr)
	i := loc[0] + len(" is ")
	ans.Voice.Transcript = tr[:i] + string('0'+(tr[i]-'0'+1)%10) + tr[i+1:]
	if _, err := c.check(text, ans); err == nil {
		t.Fatalf("voice answer with a corrupted value passed the check: %q", ans.Voice.Transcript)
	}
	dot := strings.Index(tr[i:], ".") + i
	ans.Voice.Transcript = tr[:dot] + ".25" + tr[dot:]
	if _, err := c.check(text, ans); err == nil {
		t.Fatalf("voice answer with a whole number spoken as a fraction passed the check: %q", ans.Voice.Transcript)
	}
}

// TestTracedRunRejectsDivergentAnswer composes answers from outside, as
// the traced run does, checks they equal Ask's, and checks that a
// composed answer differing in one bar or one spoken word is rejected.
func TestTracedRunRejectsDivergentAnswer(t *testing.T) {
	for _, name := range []string{"nyc311-ilp", "dob-voice"} {
		e, text := firstAnswer(t, name)
		comp := newComposer(e, newTracer(false))
		ctx := context.Background()
		ask, askSVG, err := e.ask(ctx, text)
		if err != nil {
			t.Fatal(err)
		}
		composed, svg, err := comp.answer(ctx, 0, -1, text)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAnswer(ask, composed, askSVG, svg); err != nil {
			t.Fatalf("%s: composed answer differs from Ask: %v", name, err)
		}
		if composed.Voice != nil {
			composed.Voice.Transcript += " Again."
		} else {
			e := &composed.Multiplot.Rows[0][0].Entries[0]
			e.Highlighted = !e.Highlighted
		}
		if err := sameAnswer(ask, composed, askSVG, svg); err == nil {
			t.Fatalf("%s: a diverging composed answer was accepted", name)
		}
	}
}

// TestRefusesSketches checks that a database keeping aggregate sketches
// stops the run before it measures anything.
func TestRefusesSketches(t *testing.T) {
	e, err := setup(workloads[1], shortOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := refuseModeled(e); err != nil {
		t.Fatalf("plain set-up refused: %v", err)
	}
	e.db.EnableSketches(0.01)
	if err := refuseModeled(e); err == nil || !strings.Contains(err.Error(), "refusing to run") {
		t.Errorf("a database with sketches was not refused: %v", err)
	}
}
