package muve

import (
	"fmt"
	"math"

	"muve/internal/sqldb"
	"muve/internal/viz"
)

// TrendAnswer is the result of a trend (line-plot) query — the Section 11
// future-work extension: "Queries with multiple result rows and up to two
// numerical result columns (e.g., time series) could be plotted as lines."
type TrendAnswer struct {
	Query  sqldb.Query
	Series viz.Series
	// FirstPaint is the instant approximate series answered from a
	// grouped aggregate sketch before the exact scan ran — the trend
	// analogue of the multiplot's sketch-first paint. Nil when sketching
	// is disabled or the query has no sketchable template; its values
	// equal a sampled execution at the DB's sketch rate.
	FirstPaint *viz.Series
	// Scan records the exact series' shared table pass plus any sketch
	// build/hit activity for the first paint.
	Scan sqldb.ScanStats
}

// ANSI renders the trend as a terminal line chart.
func (a *TrendAnswer) ANSI() string { return viz.RenderSeriesANSI(a.Series, 0, 0) }

// SVG renders the trend as an SVG polyline chart.
func (a *TrendAnswer) SVG() string { return viz.RenderSeriesSVG(a.Series, 0, 0) }

// Trend executes a single-aggregate query grouped by one column and
// returns its result as an ordered series. Numeric group keys order
// numerically (time series); string keys order lexicographically with
// their labels preserved. When the DB keeps aggregate sketches and the
// query matches a grouped sketch template, the answer also carries an
// instant approximate FirstPaint series computed without any table scan.
//
// Trends bypass multiplot planning: the paper notes its visualization
// method "would have to change fundamentally" for multi-row results, so
// this extension renders one interpretation rather than a multiplot of
// them.
func (s *System) Trend(q sqldb.Query) (*TrendAnswer, error) {
	if len(q.Aggs) != 1 {
		return nil, fmt.Errorf("muve: trend queries need exactly one aggregate, got %d", len(q.Aggs))
	}
	if len(q.GroupBy) != 1 {
		return nil, fmt.Errorf("muve: trend queries need exactly one GROUP BY column, got %d", len(q.GroupBy))
	}
	ans := &TrendAnswer{Query: q}
	if s.db.SketchRate() > 0 {
		if res, st, ok := s.db.SketchLookupResult(q); ok {
			first := seriesFromResult(q, res)
			ans.FirstPaint = &first
			ans.Scan.Add(st)
		}
	}
	res, st, err := s.db.ExecSharedResults([]sqldb.Query{q})
	if err != nil {
		return nil, err
	}
	ans.Scan.Add(st)
	ans.Series = seriesFromResult(q, res[0])
	return ans, nil
}

// seriesFromResult converts a grouped single-aggregate Result into an
// ordered series.
func seriesFromResult(q sqldb.Query, res sqldb.Result) viz.Series {
	ser := viz.Series{Title: q.Aggs[0].String() + " by " + q.GroupBy[0]}
	for i, row := range res.Rows {
		key, val := row[0], row[1]
		p := viz.SeriesPoint{Y: val.AsFloat()}
		if val.IsNull() {
			p.Y = math.NaN()
		}
		switch key.K {
		case sqldb.KindInt:
			p.X = float64(key.I)
		case sqldb.KindFloat:
			p.X = key.F
		default:
			p.X = float64(i) // lexicographic position (rows arrive sorted)
			p.Label = key.S
		}
		if !math.IsNaN(p.Y) {
			ser.Points = append(ser.Points, p)
		}
	}
	ser.Sort()
	return ser
}

// TrendText translates a transcript, keeps its most likely interpretation,
// and renders it as a trend grouped by the given column — the voice-driven
// variant of Trend.
func (s *System) TrendText(text, groupBy string) (*TrendAnswer, error) {
	transcript := text
	if s.channel != nil {
		transcript = s.channel.Transcribe(text)
	}
	q, err := s.pipe.Translator.Translate(transcript)
	if err != nil {
		return nil, err
	}
	q.GroupBy = []string{groupBy}
	// Drop any predicate on the grouping column: grouping subsumes it.
	var preds []sqldb.Predicate
	for _, p := range q.Preds {
		if p.Col != groupBy {
			preds = append(preds, p)
		}
	}
	q.Preds = preds
	return s.Trend(q)
}
