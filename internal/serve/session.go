package serve

import (
	"sync"
	"time"
)

// Session is per-client conversational state with a bounded lifetime.
// Voice interfaces issue bursts of consecutive, closely related
// utterances ("...and in queens", "same for heating"); the session is
// where the engine keeps what the previous utterance already computed
// so the next one starts warm even when the shared cache has moved on.
//
// Two kinds of state live here:
//
//   - the engine's own last (key, answer) pair, consulted before the
//     shared cache so an unchanged repeat within a session is free;
//   - State, an opaque slot owned by the planner for incremental
//     reuse across utterances (e.g. the previous multiplot as a warm
//     start for incremental optimization).
//
// All methods are safe for concurrent use.
type Session struct {
	// ID is the client-chosen session identifier.
	ID string

	mu       sync.Mutex
	lastSeen time.Time
	queries  int
	lastKey  string
	lastVal  any
	lastAt   time.Time
	state    any
}

// reuse returns the previous answer when key matches the session's
// last query and the answer is no older than maxAge. The session idle
// TTL refreshes on every touch, so without this bound a session-pinned
// client chatting steadily would be served the same answer forever —
// long past the shared cache's TTL. A stale pair is cleared so the
// request falls through to the cache or planner; maxAge <= 0 means no
// bound (mirroring the cache's "never expire" configuration).
func (s *Session) reuse(key string, maxAge time.Duration, now time.Time) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastKey != key || s.lastVal == nil {
		return nil, false
	}
	if maxAge > 0 && now.Sub(s.lastAt) > maxAge {
		s.lastKey, s.lastVal = "", nil
		return nil, false
	}
	return s.lastVal, true
}

// remember records the latest (key, answer) pair, stamped with the
// time it was served so reuse can refuse answers past the cache TTL.
func (s *Session) remember(key string, val any, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastKey, s.lastVal, s.lastAt = key, val, now
	s.queries++
}

// State returns the planner-owned incremental state, nil initially.
func (s *Session) State() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// SetState stores planner-owned incremental state for the next
// utterance in this session.
func (s *Session) SetState(v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = v
}

// Queries counts answered requests in this session.
func (s *Session) Queries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queries
}

// touch refreshes the idle timer.
func (s *Session) touch(now time.Time) {
	s.mu.Lock()
	s.lastSeen = now
	s.mu.Unlock()
}

func (s *Session) seen() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeen
}

// SessionStore manages sessions with an idle TTL and a hard count
// bound. Expired sessions are pruned lazily on access; when the store
// is full the longest-idle session is evicted. Safe for concurrent
// use.
type SessionStore struct {
	ttl time.Duration
	max int
	now func() time.Time

	mu       sync.Mutex
	sessions map[string]*Session
}

// NewSessionStore builds a store keeping at most max sessions (<= 0
// means 4096) that expire after ttl idle time (<= 0 means 30 minutes).
func NewSessionStore(max int, ttl time.Duration) *SessionStore {
	if max <= 0 {
		max = 4096
	}
	if ttl <= 0 {
		ttl = 30 * time.Minute
	}
	return &SessionStore{
		ttl:      ttl,
		max:      max,
		now:      time.Now,
		sessions: make(map[string]*Session),
	}
}

// Get returns the session for id, creating it if absent or expired,
// and refreshes its idle timer. An empty id returns nil: the caller
// has no session affinity.
func (st *SessionStore) Get(id string) *Session {
	if id == "" {
		return nil
	}
	now := st.now()
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok := st.sessions[id]; ok {
		if now.Sub(s.seen()) <= st.ttl {
			s.touch(now)
			return s
		}
		delete(st.sessions, id)
	}
	st.pruneLocked(now)
	s := &Session{ID: id, lastSeen: now}
	st.sessions[id] = s
	return s
}

// pruneLocked drops expired sessions and, if the store is still full,
// evicts the longest-idle one to make room for one more.
func (st *SessionStore) pruneLocked(now time.Time) {
	for id, s := range st.sessions {
		if now.Sub(s.seen()) > st.ttl {
			delete(st.sessions, id)
		}
	}
	for len(st.sessions) >= st.max {
		var oldestID string
		var oldest time.Time
		for id, s := range st.sessions {
			if t := s.seen(); oldestID == "" || t.Before(oldest) {
				oldestID, oldest = id, t
			}
		}
		delete(st.sessions, oldestID)
	}
}

// Len counts live sessions (including not-yet-pruned expired ones).
func (st *SessionStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

// Range calls f for every live session, outside the store lock (f may
// take the session's own lock freely). Iteration order is unspecified.
// Used by the drain snapshot to spill still-warm session hints.
func (st *SessionStore) Range(f func(s *Session)) {
	st.mu.Lock()
	list := make([]*Session, 0, len(st.sessions))
	for _, s := range st.sessions {
		list = append(list, s)
	}
	st.mu.Unlock()
	for _, s := range list {
		f(s)
	}
}
