package sqldb

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// DB is a named collection of tables. All query methods are safe for
// concurrent use: Register freezes a table, so loading
// (NewTable/AppendRow) finishes before queries start. Registration
// itself is also guarded so tools can build tables in parallel.
type DB struct {
	mu             sync.RWMutex
	tables         map[string]*Table
	scanThroughput float64 // rows/s; 0 = unthrottled

	sketch sketchStore
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// Register adds a table to the database, replacing any previous table of
// the same name, and freezes it: later AppendRow calls fail, every
// column is trimmed to its exact length, and every string column of at
// most 32 dictionary codes gets one table-wide selection bitmap per
// code, which the shared scan's filters read instead of the codes. A
// table is frozen once, however often and into however many DBs it is
// registered, concurrently or not.
func (db *DB) Register(t *Table) {
	t.freeze()
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables[t.Name] = t
}

// Table returns the named table, or an error naming the available tables.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t, ok := db.tables[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("sqldb: unknown table %q (have %v)", name, db.tableNamesLocked())
}

// TableNames returns the registered table names, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tableNamesLocked()
}

func (db *DB) tableNamesLocked() []string {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Exec runs a query AST row at a time and returns its result. It is the
// reference oracle the shared scan is checked against and the executor
// of the paper's §8.1 merged plans (merge.Plan.Execute); answers are
// computed by the shared scan (ExecSharedResults).
func (db *DB) Exec(q Query) (Result, error) {
	t, err := db.Table(q.Table)
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	res, err := execute(t, q, execOptions{})
	db.throttle(start, float64(t.NumRows()))
	return res, err
}

// ExecSampled runs a query row at a time over a deterministic uniform
// sample of the table with the given rate in (0, 1]; COUNT and SUM
// results are scaled to estimate the full-data answer. Like Exec it is
// the reference oracle and the §8.1 experiment entry point: it defines
// the sample that MUVE's approximate processing strategies (Section
// 8.2) read through ExecSharedResultsSampled and the sketches.
func (db *DB) ExecSampled(q Query, rate float64, seed uint64) (Result, error) {
	if rate <= 0 || rate > 1 {
		return Result{}, fmt.Errorf("sqldb: sample rate %v outside (0, 1]", rate)
	}
	t, err := db.Table(q.Table)
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	res, err := execute(t, q, execOptions{sampleRate: rate, sampleSeed: seed})
	// A physical sample only reads the sampled fraction of the data.
	db.throttle(start, float64(t.NumRows())*rate)
	return res, err
}

// SetScanThroughput throttles query execution to the given effective scan
// rate in rows per second (0 disables throttling, the default). It
// emulates a disk-bound backend like the paper's 10 GB-on-laptop Postgres
// setup, where scan time dominates: exact execution is charged for every
// table row, while sampled execution is charged only for the sample (the
// standard physical-sample model of approximate query processing).
//
// Only the Figure 13 experiment (internal/bench) sets it, to recreate the
// paper's "large data" conditions that the in-memory engine is otherwise
// too fast to exhibit. The throttle is a real sleep because Figure 13's
// ILP-Inc interleaves execution with optimisation under one wall-clock
// budget: scan time has to consume that budget. Timings taken under it
// are experiment outputs, not measurements of the engine.
func (db *DB) SetScanThroughput(rowsPerSecond float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.scanThroughput = rowsPerSecond
}

// getScanThroughput returns the configured throttle.
func (db *DB) getScanThroughput() float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.scanThroughput
}

// throttle sleeps so the elapsed execution time matches the configured
// scan throughput for the given number of effective rows.
func (db *DB) throttle(start time.Time, effectiveRows float64) {
	tp := db.getScanThroughput()
	if tp <= 0 {
		return
	}
	target := time.Duration(effectiveRows / tp * float64(time.Second))
	if wait := target - time.Since(start); wait > 0 {
		time.Sleep(wait)
	}
}

// Query parses and runs a SQL string.
func (db *DB) Query(sql string) (Result, error) {
	q, err := Parse(sql)
	if err != nil {
		return Result{}, err
	}
	return db.Exec(q)
}
