package muve

import (
	"context"

	"muve/internal/core"
	"muve/internal/serve"
	"muve/internal/speak"
)

// SessionState is what a serving session remembers between utterances:
// its latest answer per output modality. Warm starts must seed from an
// answer of the same kind, so a voice follow-up never clobbers the
// multiplot prior (or vice versa). Engines built by System.NewEngine
// keep a *SessionState in serve.Session's State slot.
type SessionState struct {
	Plot, Voice *Answer
}

// sessionState unwraps a session's state (nil-safe on both levels).
func sessionState(sess *serve.Session) *SessionState {
	if sess == nil {
		return nil
	}
	st, _ := sess.State().(*SessionState)
	return st
}

// NewEngine builds the serving engine's degradation ladder over s.
// cfg carries the serving configuration (admission, deadlines, cache,
// breaker, hedging, chaos); NewEngine fills in its rungs and the
// cache-key identity (Dataset, Solver, WidthPx) from s's own config:
//
//   - Planner is s itself: the exact rung for ILP solvers, warm-started
//     from the session's previous answer of the same modality.
//   - Fallback, only when s's solver is not greedy, is a greedy copy of
//     s: the greedy rung, and the hedge raced against slow exact solves.
//   - Minimal is a greedy copy over the single most likely
//     interpretation (no phonetic expansion, one candidate): a single
//     plot, or for voice a single headline fact, in single-digit
//     milliseconds — the last thing tried before a 503.
//
// Every rung routes by the request's mode: format=voice answers map
// the same descent to the fact-set planners (exact fact-set ILP →
// greedy facts → stale → one headline fact). Every rung's answer
// records its shared-scan stats, warm-start outcome and spoken length
// into cfg.Metrics (allocated when nil); exact and greedy answers
// become the session's warm-start prior for its next utterance.
func (s *System) NewEngine(cfg serve.Config) (*serve.Engine, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = &serve.Metrics{}
	}
	cfg.Dataset = s.table
	cfg.Solver = s.cfg.Solver.String()
	cfg.WidthPx = s.cfg.Screen.WidthPx
	cfg.Planner = s.rung(cfg.Metrics, true)

	greedy := s.cfg
	greedy.Solver = SolverGreedy
	greedy.Presentation = nil
	if s.cfg.Solver != SolverGreedy {
		g, err := s.derive(greedy)
		if err != nil {
			return nil, err
		}
		// A degraded answer is still the freshest one for its session.
		cfg.Fallback = g.rung(cfg.Metrics, true)
	}
	minimal := greedy
	minimal.K, minimal.MaxCandidates = 1, 1
	m, err := s.derive(minimal)
	if err != nil {
		return nil, err
	}
	cfg.Minimal = m.rung(cfg.Metrics, false)
	return serve.NewEngine(cfg)
}

// derive builds a System over s's table with cfg in place of s's.
func (s *System) derive(cfg Config) (*System, error) {
	return New(s.db, s.table, func(c *Config) { *c = cfg })
}

// rung adapts s to one ladder rung: it answers in the request's mode,
// seeded by the session's prior of that mode, records the answer into
// m, and with remember stores it as the session's next prior.
func (s *System) rung(m *serve.Metrics, remember bool) serve.Planner {
	return func(ctx context.Context, req serve.Request, sess *serve.Session) (any, error) {
		st := sessionState(sess)
		voice := req.Mode == serve.ModeVoice
		var ans *Answer
		var err error
		if voice {
			var prior *speak.FactSet
			if st != nil && st.Voice != nil && st.Voice.Voice != nil {
				prior = &st.Voice.Voice.Facts
			}
			ans, err = s.AskVoiceContext(ctx, req.Transcript, prior)
		} else {
			var prior *core.Multiplot
			if st != nil && st.Plot != nil {
				prior = &st.Plot.Multiplot
			}
			ans, err = s.askPlot(ctx, req.Transcript, prior)
		}
		if err != nil {
			return nil, err
		}
		m.RecordScan(ans.Stats.Scan)
		if ws := ans.Stats.WarmStart; ws != "" {
			m.WarmStarts.With(string(ws)).Inc()
		}
		if ans.Voice != nil {
			m.Speak[serve.SpeakFacts].Add(uint64(len(ans.Voice.Facts.Facts)))
			m.Speak[serve.SpeakWords].Add(uint64(ans.Voice.Words))
		}
		if remember && sess != nil {
			// Copy on write: a concurrent utterance of the same session
			// may be reading the previous state.
			var next SessionState
			if st != nil {
				next = *st
			}
			if voice {
				next.Voice = ans
			} else {
				next.Plot = ans
			}
			sess.SetState(&next)
		}
		return ans, nil
	}
}
