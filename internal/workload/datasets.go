// Package workload provides the synthetic stand-ins for the paper's four
// evaluation data sets (Section 9.1) — advertisement contacts from an
// industry partner, NYC Department of Buildings job filings, NYC 311
// service requests, and the flight-delay data set — plus the random query
// generation protocols the experiments use.
//
// The real data sets are proprietary or multi-gigabyte downloads; what the
// experiments actually exercise is (a) categorical columns whose values
// are phonetically confusable (so candidate generation produces real
// ambiguity), (b) numeric columns to aggregate, and (c) a row count that
// scales scan cost. The generators reproduce those properties
// deterministically from a seed.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"muve/internal/sqldb"
)

// Dataset names one of the four synthetic data sets.
type Dataset uint8

const (
	// Ads models the advertisement-contacts data set.
	Ads Dataset = iota
	// DOB models the NYC Department of Buildings job filings.
	DOB
	// NYC311 models the 311 service-request data set.
	NYC311
	// Flights models the flight-delays data set (the paper's largest).
	Flights
)

// String returns the data set's table name.
func (d Dataset) String() string {
	switch d {
	case Ads:
		return "contacts"
	case DOB:
		return "dob_jobs"
	case NYC311:
		return "requests"
	case Flights:
		return "flights"
	}
	return fmt.Sprintf("Dataset(%d)", uint8(d))
}

// AllDatasets lists the four data sets in paper order.
var AllDatasets = []Dataset{Ads, DOB, NYC311, Flights}

// DefaultRows returns a laptop-friendly default size preserving the
// paper's relative scale (flights is by far the largest: 10 GB vs 1 GB
// DOB).
func (d Dataset) DefaultRows() int {
	switch d {
	case Ads:
		return 30_000
	case DOB:
		return 120_000
	case NYC311:
		return 80_000
	case Flights:
		return 1_200_000
	}
	return 10_000
}

// catSpec is a categorical column: name plus value pool. Pools contain
// phonetically confusable entries on purpose.
type catSpec struct {
	name   string
	values []string
}

// numSpec is a numeric column with a value generator.
type numSpec struct {
	name string
	kind sqldb.Kind
	gen  func(rng *rand.Rand) sqldb.Value
}

// spec is a full table blueprint.
type spec struct {
	cats []catSpec
	nums []numSpec
}

// specFor returns the blueprint of a data set.
func specFor(d Dataset) spec {
	switch d {
	case Ads:
		return spec{
			cats: []catSpec{
				{"channel", []string{"Email", "Phone", "Social", "Search", "Display", "Direct Mail", "Radio", "Video"}},
				{"region", []string{"Northeast", "Northwest", "Southeast", "Southwest", "Midwest", "Mountain", "Pacific"}},
				{"industry", []string{"Retail", "Realty", "Finance", "Pharma", "Farming", "Media", "Mining", "Gaming"}},
				{"outcome", []string{"Converted", "Contacted", "Declined", "Deferred", "Pending"}},
			},
			nums: []numSpec{
				{"cost", sqldb.KindFloat, func(r *rand.Rand) sqldb.Value { return sqldb.Float(r.Float64() * 500) }},
				{"impressions", sqldb.KindInt, func(r *rand.Rand) sqldb.Value { return sqldb.Int(int64(r.Intn(100000))) }},
				{"age", sqldb.KindInt, func(r *rand.Rand) sqldb.Value { return sqldb.Int(int64(18 + r.Intn(60))) }},
			},
		}
	case DOB:
		return spec{
			cats: []catSpec{
				{"job_type", []string{"Alteration", "Demolition", "New Building", "Plumbing", "Planning", "Sign", "Scaffold", "Boiler", "Builder Pavement"}},
				{"boro", []string{"Brooklyn", "Bronx", "Manhattan", "Queens", "Staten Island"}},
				{"building_type", []string{"Residential", "Commercial", "Industrial", "Mixed Use", "Municipal"}},
				{"permit_status", []string{"Issued", "In Process", "Approved", "Applied", "Appealed", "Expired"}},
			},
			nums: []numSpec{
				{"initial_cost", sqldb.KindFloat, func(r *rand.Rand) sqldb.Value { return sqldb.Float(r.Float64() * 1e6) }},
				{"existing_stories", sqldb.KindInt, func(r *rand.Rand) sqldb.Value { return sqldb.Int(int64(1 + r.Intn(40))) }},
				{"proposed_stories", sqldb.KindInt, func(r *rand.Rand) sqldb.Value { return sqldb.Int(int64(1 + r.Intn(45))) }},
				{"year", sqldb.KindInt, func(r *rand.Rand) sqldb.Value { return sqldb.Int(int64(2000 + r.Intn(21))) }},
			},
		}
	case NYC311:
		return spec{
			cats: []catSpec{
				{"complaint_type", []string{"Noise", "Heating", "Heat Hot Water", "Parking", "Water Leak", "Rodent", "Graffiti", "Blocked Driveway", "Street Light", "Street Sign", "Sewer", "Sidewalk", "Asbestos", "Air Quality"}},
				{"borough", []string{"Brooklyn", "Bronx", "Manhattan", "Queens", "Staten Island"}},
				{"agency", []string{"NYPD", "HPD", "DOT", "DEP", "DSNY", "DOHMH", "DOB", "DPR"}},
				{"status", []string{"Open", "Closed", "Pending", "Assigned", "Started", "Unassigned"}},
				{"channel_type", []string{"Phone", "Online", "Mobile", "Mail", "Unknown"}},
			},
			nums: []numSpec{
				{"response_hours", sqldb.KindFloat, func(r *rand.Rand) sqldb.Value { return sqldb.Float(r.Float64() * 240) }},
				{"year", sqldb.KindInt, func(r *rand.Rand) sqldb.Value { return sqldb.Int(int64(2010 + r.Intn(11))) }},
			},
		}
	default: // Flights
		return spec{
			cats: []catSpec{
				{"origin", []string{"JFK", "LGA", "EWR", "ORD", "ATL", "LAX", "SFO", "SEA", "DEN", "DFW", "BOS", "BWI", "PHL", "PHX", "MIA", "MSP"}},
				{"dest", []string{"JFK", "LGA", "EWR", "ORD", "ATL", "LAX", "SFO", "SEA", "DEN", "DFW", "BOS", "BWI", "PHL", "PHX", "MIA", "MSP"}},
				{"carrier", []string{"American", "Alaskan", "Delta", "United", "Southwest", "JetBlue", "Spirit", "Frontier", "Allegiant"}},
				{"cancel_reason", []string{"None", "Weather", "Carrier", "Security", "NAS"}},
			},
			nums: []numSpec{
				{"dep_delay", sqldb.KindFloat, func(r *rand.Rand) sqldb.Value { return sqldb.Float(r.NormFloat64()*30 + 8) }},
				{"arr_delay", sqldb.KindFloat, func(r *rand.Rand) sqldb.Value { return sqldb.Float(r.NormFloat64()*35 + 6) }},
				{"distance", sqldb.KindFloat, func(r *rand.Rand) sqldb.Value { return sqldb.Float(100 + r.Float64()*2900) }},
				{"month", sqldb.KindInt, func(r *rand.Rand) sqldb.Value { return sqldb.Int(int64(1 + r.Intn(12))) }},
				{"day_of_week", sqldb.KindInt, func(r *rand.Rand) sqldb.Value { return sqldb.Int(int64(1 + r.Intn(7))) }},
			},
		}
	}
}

// Build generates the data set with the given row count, deterministically
// from the seed. Categorical values follow a skewed (Zipf-like) frequency
// distribution, as real civic data does, so predicate selectivities vary.
func Build(d Dataset, rows int, seed int64) (*sqldb.Table, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("workload: row count must be positive, got %d", rows)
	}
	sp := specFor(d)
	defs := make([]sqldb.ColumnDef, 0, len(sp.cats)+len(sp.nums))
	for _, c := range sp.cats {
		defs = append(defs, sqldb.ColumnDef{Name: c.name, Kind: sqldb.KindString})
	}
	for _, n := range sp.nums {
		defs = append(defs, sqldb.ColumnDef{Name: n.name, Kind: n.kind})
	}
	t, err := sqldb.NewTable(d.String(), defs...)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	// Pre-compute skewed cumulative weights per categorical column:
	// weight(i) ~ 1/(i+1).
	cum := make([][]float64, len(sp.cats))
	for ci, c := range sp.cats {
		w := make([]float64, len(c.values))
		total := 0.0
		for i := range w {
			total += 1 / float64(i+1)
			w[i] = total
		}
		for i := range w {
			w[i] /= total
		}
		cum[ci] = w
	}
	row := make([]sqldb.Value, len(defs))
	for r := 0; r < rows; r++ {
		for ci, c := range sp.cats {
			u := rng.Float64()
			k := 0
			for k < len(cum[ci])-1 && u > cum[ci][k] {
				k++
			}
			row[ci] = sqldb.Str(c.values[k])
		}
		for ni, n := range sp.nums {
			row[len(sp.cats)+ni] = n.gen(rng)
		}
		if err := t.AppendRow(row...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// BuildDB builds a database holding the given data sets at their default
// sizes scaled by the given factor (1.0 = defaults; experiments use small
// factors for quick runs).
func BuildDB(scale float64, seed int64, sets ...Dataset) (*sqldb.DB, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("workload: scale must be positive, got %v", scale)
	}
	db := sqldb.NewDB()
	for i, d := range sets {
		rows := int(float64(d.DefaultRows()) * scale)
		if rows < 100 {
			rows = 100
		}
		t, err := Build(d, rows, seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		db.Register(t)
	}
	return db, nil
}

// ByName resolves a user-facing data set name (CLI flags, config files)
// to a Dataset. Accepted spellings include the table names and common
// shorthands: "ads"/"contacts", "dob"/"dob_jobs", "nyc311"/"311"/
// "requests", "flights".
func ByName(name string) (Dataset, error) {
	switch strings.ToLower(name) {
	case "ads", "contacts":
		return Ads, nil
	case "dob", "dob_jobs":
		return DOB, nil
	case "nyc311", "311", "requests":
		return NYC311, nil
	case "flights":
		return Flights, nil
	}
	return 0, fmt.Errorf("workload: unknown data set %q (want ads|dob|nyc311|flights)", name)
}
