// Command muve is an interactive MUVE shell: type natural-language queries
// against a synthetic data set (or your own CSV) and get multiplots
// covering the most likely interpretations, rendered in the terminal.
//
// Usage:
//
//	muve [flags]
//	  -dataset  ads|dob|nyc311|flights   synthetic data set (default nyc311)
//	  -csv      path                      load a CSV instead (header row required)
//	  -rows     n                         synthetic row count (default 50000)
//	  -solver   greedy|ilp|ilp-inc        visualization planner (default greedy)
//	  -width    px                        screen width in pixels (default 1024)
//	  -screen-rows n                      multiplot rows (default 1)
//	  -noise    wer                       simulated speech word-error rate (default 0)
//	  -query    text                      answer one query and exit
//
// Example session:
//
//	$ muve -dataset nyc311
//	muve> how many noise complaints in brucklyn
//	...multiplot...
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"muve"
	"muve/internal/sqldb"
	"muve/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "muve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		datasetFlag = flag.String("dataset", "nyc311", "synthetic data set: ads|dob|nyc311|flights")
		csvFlag     = flag.String("csv", "", "load a CSV file instead of a synthetic data set")
		rowsFlag    = flag.Int("rows", 50_000, "synthetic data set row count")
		solverFlag  = flag.String("solver", "greedy", "planner: greedy|ilp|ilp-inc")
		widthFlag   = flag.Int("width", 1024, "screen width in pixels")
		screenRows  = flag.Int("screen-rows", 1, "multiplot rows")
		noiseFlag   = flag.Float64("noise", 0, "simulated speech word-error rate in [0,1]")
		queryFlag   = flag.String("query", "", "answer a single query and exit")
		seedFlag    = flag.Int64("seed", 1, "random seed for data and noise")
	)
	flag.Parse()

	db := sqldb.NewDB()
	var tableName string
	if *csvFlag != "" {
		f, err := os.Open(*csvFlag)
		if err != nil {
			return err
		}
		defer f.Close()
		name := strings.TrimSuffix(strings.TrimSuffix(*csvFlag, ".csv"), "/")
		if i := strings.LastIndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		tbl, err := sqldb.LoadCSV(name, f)
		if err != nil {
			return err
		}
		db.Register(tbl)
		tableName = name
	} else {
		ds, err := workload.ByName(*datasetFlag)
		if err != nil {
			return err
		}
		tbl, err := workload.Build(ds, *rowsFlag, *seedFlag)
		if err != nil {
			return err
		}
		db.Register(tbl)
		tableName = ds.String()
	}

	solver, err := muve.ParseSolverKind(*solverFlag)
	if err != nil {
		return err
	}
	opts := []muve.Option{
		muve.WithWidth(*widthFlag),
		muve.WithRows(*screenRows),
		muve.WithSolver(solver),
	}
	if *noiseFlag > 0 {
		opts = append(opts, muve.WithSpeechNoise(*noiseFlag, *seedFlag))
	}
	sys, err := muve.New(db, tableName, opts...)
	if err != nil {
		return err
	}

	answer := func(text string) {
		ans, err := sys.Ask(text)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return
		}
		if ans.Transcript != text {
			fmt.Printf("(heard: %q)\n", ans.Transcript)
		}
		fmt.Printf("most likely query: %s\n", ans.TopQuery.SQL())
		fmt.Printf("candidates: %d, planning cost: %.0f ms est. disambiguation, took %v\n",
			len(ans.Candidates), ans.Stats.Cost, ans.Stats.Duration.Round(1e6))
		fmt.Println(ans.ANSI())
	}

	if *queryFlag != "" {
		answer(*queryFlag)
		return nil
	}

	fmt.Printf("MUVE over table %q (%s solver). Type a question, or 'quit'.\n", tableName, *solverFlag)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("muve> ")
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		switch line {
		case "":
			continue
		case "quit", "exit":
			return nil
		}
		answer(line)
	}
}
