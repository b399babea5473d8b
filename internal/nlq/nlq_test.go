package nlq

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"muve/internal/sqldb"
	"muve/internal/workload"
)

func catalog311(t *testing.T) (*Catalog, *sqldb.Table) {
	t.Helper()
	tbl, err := workload.Build(workload.NYC311, 3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	return BuildCatalog(tbl, 0), tbl
}

func TestTranslateCountQuery(t *testing.T) {
	cat, _ := catalog311(t)
	tr := NewTranslator(cat)
	q, err := tr.Translate("how many noise complaints in Brooklyn")
	if err != nil {
		t.Fatal(err)
	}
	if q.Aggs[0].Func != sqldb.AggCount {
		t.Errorf("agg = %v", q.Aggs[0])
	}
	if q.Table != "requests" {
		t.Errorf("table = %q", q.Table)
	}
	found := map[string]string{}
	for _, p := range q.Preds {
		found[p.Col] = p.Values[0].S
	}
	if found["borough"] != "Brooklyn" {
		t.Errorf("preds = %v", q.Preds)
	}
	if found["complaint_type"] != "Noise" {
		t.Errorf("preds = %v", q.Preds)
	}
}

func TestTranslateAvgQuery(t *testing.T) {
	cat, _ := catalog311(t)
	tr := NewTranslator(cat)
	q, err := tr.Translate("what is the average response hours for heating in the Bronx")
	if err != nil {
		t.Fatal(err)
	}
	if q.Aggs[0].Func != sqldb.AggAvg || q.Aggs[0].Col != "response_hours" {
		t.Errorf("agg = %v", q.Aggs[0])
	}
}

func TestTranslateMisheardTokens(t *testing.T) {
	// Phonetic matching must survive speech-recognition mangling.
	cat, _ := catalog311(t)
	tr := NewTranslator(cat)
	q, err := tr.Translate("how many complaints in bruklin")
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	for _, p := range q.Preds {
		if p.Col == "borough" && p.Values[0].S == "Brooklyn" {
			ok = true
		}
	}
	if !ok {
		t.Errorf("mishearing not resolved: %v", q.Preds)
	}
}

func TestTranslateRunnable(t *testing.T) {
	// Whatever the translator produces must execute on the table.
	cat, tbl := catalog311(t)
	db := sqldb.NewDB()
	db.Register(tbl)
	tr := NewTranslator(cat)
	for _, text := range []string{
		"how many complaints",
		"average response hours in Manhattan",
		"total response hours for rodent complaints",
		"maximum response hours",
		"gibberish zzz qqq", // must still yield a runnable default
	} {
		q, err := tr.Translate(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if _, err := db.Exec(q); err != nil {
			t.Errorf("%q -> %s: %v", text, q.SQL(), err)
		}
	}
	if _, err := tr.Translate("   "); err == nil {
		t.Error("empty transcript accepted")
	}
}

func TestCandidatesDistribution(t *testing.T) {
	cat, _ := catalog311(t)
	gen := NewGenerator(cat)
	q := sqldb.MustParse("SELECT count(*) FROM requests WHERE borough = 'Brooklyn'")
	cands, err := gen.Candidates(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 || len(cands) > gen.MaxCandidates {
		t.Fatalf("candidates = %d", len(cands))
	}
	// Probabilities sum to 1, sorted decreasing, original query first.
	sum := 0.0
	for i, c := range cands {
		sum += c.Prob
		if i > 0 && c.Prob > cands[i-1].Prob+1e-12 {
			t.Error("candidates not sorted by probability")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	if cands[0].Query.SQL() != q.SQL() {
		t.Errorf("most likely candidate is %s, want original", cands[0].Query.SQL())
	}
	// All candidates are distinct and share the template structure.
	seen := map[string]bool{}
	for _, c := range cands {
		sql := c.Query.SQL()
		if seen[sql] {
			t.Errorf("duplicate candidate %s", sql)
		}
		seen[sql] = true
		if len(c.Query.Preds) != 1 || c.Query.Preds[0].Col != "borough" {
			t.Errorf("candidate mutated structure: %s", sql)
		}
	}
}

func TestCandidatesMultiElement(t *testing.T) {
	cat, _ := catalog311(t)
	gen := NewGenerator(cat)
	gen.MaxCandidates = 30
	q := sqldb.MustParse("SELECT avg(response_hours) FROM requests WHERE borough = 'Queens' AND status = 'Open'")
	cands, err := gen.Candidates(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 10 {
		t.Fatalf("expected a rich candidate set, got %d", len(cands))
	}
	// Expansion varies values of both predicates (and possibly the agg
	// column): check at least one candidate changed each element.
	varied := map[string]bool{}
	for _, c := range cands {
		if c.Query.Preds[0].Values[0].S != "Queens" {
			varied["borough"] = true
		}
		if c.Query.Preds[1].Values[0].S != "Open" {
			varied["status"] = true
		}
	}
	if !varied["borough"] || !varied["status"] {
		t.Errorf("variation coverage: %v", varied)
	}
	// Each element rewrites its own slot, so no two candidates coincide.
	seen := map[string]bool{}
	for _, c := range cands {
		sql := c.Query.SQL()
		if seen[sql] {
			t.Errorf("duplicate candidate %s", sql)
		}
		seen[sql] = true
	}
}

// TestCandidatesKeySpace pins the bound of the combination search's
// int64 keys: a query expands only while the product of its elements'
// visitable choice counts fits.
func TestCandidatesKeySpace(t *testing.T) {
	alts := make([]alternative, 40)
	elements := make([][]alternative, 14)
	for i := range elements {
		elements[i] = alts
	}
	// 20^14 < 2^63 < 20^15 at the default limit of 20 candidates.
	if !keyFits(elements, 20) {
		t.Error("14 elements of 20 visitable choices rejected")
	}
	if keyFits(append(elements, alts), 20) {
		t.Error("15 elements of 20 visitable choices accepted")
	}
	if !keyFits(append(elements, alts[:1]), 20) {
		t.Error("a single-choice element widened the key")
	}

	cat, _ := catalog311(t)
	q := sqldb.MustParse("SELECT count(*) FROM requests WHERE borough = 'Queens'")
	for len(q.Preds) < 40 {
		q.Preds = append(q.Preds, q.Preds[0])
	}
	if _, err := NewGenerator(cat).Candidates(q); err == nil {
		t.Error("40 expandable predicates: no error")
	}
}

func TestCandidatesNoExpandableElements(t *testing.T) {
	cat, _ := catalog311(t)
	gen := NewGenerator(cat)
	// COUNT(*) without predicates has no schema elements to vary.
	q := sqldb.MustParse("SELECT count(*) FROM requests")
	cands, err := gen.Candidates(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Prob != 1 {
		t.Errorf("cands = %+v", cands)
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	cat, tbl := catalog311(t)
	db := sqldb.NewDB()
	db.Register(tbl)
	p := NewPipeline(cat)
	cands, err := p.Run("how many noise complaints in brooklin")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 {
		t.Fatalf("pipeline produced %d candidates", len(cands))
	}
	// Every candidate must be runnable.
	for _, c := range cands {
		if _, err := db.Exec(c.Query); err != nil {
			t.Errorf("candidate %s: %v", c.Query.SQL(), err)
		}
	}
	// The intended query should be among the top candidates.
	foundCorrect := false
	for _, c := range cands[:minInt(5, len(cands))] {
		for _, p := range c.Query.Preds {
			if p.Col == "borough" && p.Values[0].S == "Brooklyn" {
				foundCorrect = true
			}
		}
	}
	if !foundCorrect {
		t.Error("correct interpretation not among top-5 candidates")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestTopCombinationsOrdering(t *testing.T) {
	els := [][]alternative{
		{{score: 0.9}, {score: 0.5}},
		{{score: 0.8}, {score: 0.7}, {score: 0.1}},
	}
	combos := topCombinations(els, 10)
	if len(combos) != 6 {
		t.Fatalf("combos = %d, want 6", len(combos))
	}
	// Scores non-increasing; best = 0.9*0.8.
	if math.Abs(combos[0].score-0.72) > 1e-12 {
		t.Errorf("best score = %v", combos[0].score)
	}
	for i := 1; i < len(combos); i++ {
		if combos[i].score > combos[i-1].score+1e-12 {
			t.Errorf("combo %d out of order: %v > %v", i, combos[i].score, combos[i-1].score)
		}
	}
	// Limit respected.
	if got := topCombinations(els, 3); len(got) != 3 {
		t.Errorf("limited combos = %d", len(got))
	}
}

func TestCatalogAccessors(t *testing.T) {
	cat, _ := catalog311(t)
	if len(cat.Columns()) != 7 {
		t.Errorf("columns = %v", cat.Columns())
	}
	if len(cat.NumericColumns()) != 2 {
		t.Errorf("numeric = %v", cat.NumericColumns())
	}
	if k, ok := cat.Kind("borough"); !ok || k != sqldb.KindString {
		t.Error("Kind(borough)")
	}
	if _, ok := cat.Kind("nope"); ok {
		t.Error("Kind of missing column")
	}
	ms := cat.SimilarValues("borough", "bronks", 2)
	if len(ms) != 2 || ms[0].Entry != "Bronx" {
		t.Errorf("SimilarValues = %v", ms)
	}
	if got := cat.SimilarValues("response_hours", "x", 2); got != nil {
		t.Error("numeric column should have no value index")
	}
	v, col, _, ok := cat.ResolveValue("manhatan")
	if !ok || v != "Manhattan" || col != "borough" {
		t.Errorf("ResolveValue = %q %q %v", v, col, ok)
	}
	if err := (&Catalog{}).Validate(); err == nil {
		t.Error("empty catalog valid")
	}
}

func TestCatalogValueCap(t *testing.T) {
	tbl, _ := sqldb.NewTable("t", sqldb.ColumnDef{Name: "c", Kind: sqldb.KindString})
	for i := 0; i < 100; i++ {
		_ = tbl.AppendRow(sqldb.Str(strings.Repeat("x", 1+i%7) + string(rune('a'+i%26))))
	}
	cat := BuildCatalog(tbl, 10)
	if got := cat.valueIndex["c"].Len(); got != 10 {
		t.Errorf("capped index size = %d, want 10", got)
	}
}

func TestDescribe(t *testing.T) {
	q := sqldb.MustParse("SELECT avg(response_hours) FROM requests WHERE borough = 'Queens' AND status = 'Open'")
	d := Describe(q)
	want := "avg of response_hours where borough is Queens and status is Open"
	if d != want {
		t.Errorf("Describe = %q, want %q", d, want)
	}
	if got := Describe(sqldb.MustParse("SELECT count(*) FROM t")); got != "count of rows" {
		t.Errorf("Describe count = %q", got)
	}
}

func TestTranslateDeterministic(t *testing.T) {
	cat, _ := catalog311(t)
	tr := NewTranslator(cat)
	rng := rand.New(rand.NewSource(1))
	texts := []string{
		"how many noise complaints in Brooklyn",
		"average response hours for heating",
	}
	for i := 0; i < 5; i++ {
		text := texts[rng.Intn(len(texts))]
		a, _ := tr.Translate(text)
		b, _ := tr.Translate(text)
		if a.SQL() != b.SQL() {
			t.Fatalf("nondeterministic translation of %q", text)
		}
	}
}

func TestTranslateNumericPredicate(t *testing.T) {
	cat, tbl := catalog311(t)
	db := sqldb.NewDB()
	db.Register(tbl)
	tr := NewTranslator(cat)
	q, err := tr.Translate("how many complaints in 2015")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range q.Preds {
		if p.Col == "year" && p.Values[0].K == sqldb.KindInt && p.Values[0].I == 2015 {
			found = true
		}
	}
	if !found {
		t.Errorf("numeric predicate missing: %s", q.SQL())
	}
	if _, err := db.Exec(q); err != nil {
		t.Fatal(err)
	}
	// Numbers absent from every integer column produce no predicate.
	q, _ = tr.Translate("how many complaints in 1850")
	for _, p := range q.Preds {
		if p.Values[0].K == sqldb.KindInt {
			t.Errorf("implausible number matched: %s", q.SQL())
		}
	}
}

func TestCandidatesNumericExpansion(t *testing.T) {
	cat, _ := catalog311(t)
	gen := NewGenerator(cat)
	q := sqldb.MustParse("SELECT count(*) FROM requests WHERE year = 2015")
	cands, err := gen.Candidates(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 3 {
		t.Fatalf("numeric expansion produced %d candidates", len(cands))
	}
	if cands[0].Query.Preds[0].Values[0].I != 2015 {
		t.Errorf("original year not most likely: %s", cands[0].Query.SQL())
	}
	// Confusable years (three shared digits, e.g. 2016) outrank clearly
	// distant ones (2020 shares only two digit positions with 2015).
	rank := map[int64]int{}
	for i, c := range cands {
		rank[c.Query.Preds[0].Values[0].I] = i
	}
	if r2016, ok := rank[2016]; ok {
		if r2020, ok2 := rank[2020]; ok2 && r2020 < r2016 {
			t.Errorf("2020 (rank %d) outranks 2016 (rank %d) for misheard 2015", r2020, r2016)
		}
	}
	// All candidates stay on the year column with integer values.
	for _, c := range cands {
		if c.Query.Preds[0].Col != "year" || c.Query.Preds[0].Values[0].K != sqldb.KindInt {
			t.Errorf("candidate mutated structure: %s", c.Query.SQL())
		}
	}
}

func TestIntCatalogAccessors(t *testing.T) {
	cat, _ := catalog311(t)
	cols := cat.IntColumnsContaining(2015)
	if len(cols) != 1 || cols[0] != "year" {
		t.Errorf("IntColumnsContaining = %v", cols)
	}
	if got := cat.IntColumnsContaining(999999); got != nil {
		t.Errorf("implausible value matched %v", got)
	}
	ys := cat.IntValues("year")
	if len(ys) != 11 || ys[0] != 2010 || ys[10] != 2020 {
		t.Errorf("IntValues = %v", ys)
	}
	if cat.IntValues("borough") != nil {
		t.Error("string column has int values")
	}
}
