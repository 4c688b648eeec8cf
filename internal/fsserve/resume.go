package fsserve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"betrfs/internal/fsrpc"
	"betrfs/internal/vfs"
)

// sessState is the resumable half of a session (DESIGN.md §13.9): the
// handle table and the duplicate-reply cache, owned by at most one live
// connection at a time. An anonymous state (empty token) lives and dies
// with its connection — the pre-session behavior. A named state (created
// by HELLO) outlives connections: it is registered in the server's token
// map, survives a transport death, and is re-attached by HELLO(token) on
// the next connection, subject to the lease.
type sessState struct {
	hmu     sync.Mutex
	token   string // empty: anonymous, discarded at connection close
	handles map[uint64]*vfs.File
	order   []uint64 // insertion order, for FIFO eviction

	drc drcCache

	// lastActive is the wall-clock (unixnano) of the last request that
	// arrived for this state; the lease janitor expires detached named
	// states idle past Config.SessionLease.
	lastActive int64

	// cur is the connection currently holding this state; guarded by the
	// server mu. Nil while detached (between a transport death and the
	// resuming HELLO).
	cur *session
}

func newSessState(drcEntries int) *sessState {
	return &sessState{
		handles: make(map[uint64]*vfs.File),
		drc:     drcCache{cap: drcEntries},
	}
}

// put registers f under handle id, evicting the oldest handle beyond max.
func (st *sessState) put(id uint64, f *vfs.File, max int) {
	st.hmu.Lock()
	defer st.hmu.Unlock()
	st.handles[id] = f
	st.order = append(st.order, id)
	if len(st.handles) > max {
		victim := st.order[0]
		st.order = st.order[1:]
		if old, ok := st.handles[victim]; ok {
			old.Close()
			delete(st.handles, victim)
		}
	}
}

// get resolves a handle.
func (st *sessState) get(id uint64) (*vfs.File, bool) {
	st.hmu.Lock()
	defer st.hmu.Unlock()
	f, ok := st.handles[id]
	return f, ok
}

// closeHandles closes and drops every open handle.
func (st *sessState) closeHandles() {
	st.hmu.Lock()
	for _, f := range st.handles {
		f.Close()
	}
	st.handles = make(map[uint64]*vfs.File)
	st.order = nil
	st.hmu.Unlock()
}

// drcEntry is one duplicate-reply cache slot. done is closed once rep is
// set; a replay that races the original execution waits on it instead of
// re-executing (the NFS-DRC "in-progress" state).
type drcEntry struct {
	done chan struct{}
	rep  *fsrpc.Reply
}

// drcCache is the per-session duplicate-reply cache (DESIGN.md §13.9): it
// remembers the reply of the last cap completed mutations by sequence
// number, so a client replaying a fate-unknown mutation after a reconnect
// gets the original reply instead of a second execution. Sequences evicted
// past the horizon can no longer be disambiguated and are refused with
// ERETIRED — the client window bounds how far a live client's replays can
// trail, so cap must exceed the client window (the defaults are 256 vs 32).
type drcCache struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*drcEntry
	order   []uint64 // completed entries in commit order, for FIFO eviction
	horizon uint64   // highest evicted seq: absent seqs <= horizon are retired
}

// drc begin outcomes.
const (
	drcExec    = iota // fresh sequence: caller executes, then commits
	drcHit            // duplicate: cached reply returned
	drcRetired        // sequence evicted past the horizon: refuse
)

// begin claims seq. drcExec returns the in-progress entry the caller must
// commit; drcHit returns the original reply (waiting out a concurrent
// original execution if needed); drcRetired means the sequence fell behind
// the cache horizon.
func (d *drcCache) begin(seq uint64) (verdict int, rep *fsrpc.Reply, e *drcEntry) {
	d.mu.Lock()
	if d.entries == nil {
		d.entries = make(map[uint64]*drcEntry)
	}
	if cur, ok := d.entries[seq]; ok {
		d.mu.Unlock()
		<-cur.done // already closed unless the original is still executing
		return drcHit, cur.rep, nil
	}
	if seq <= d.horizon {
		d.mu.Unlock()
		return drcRetired, nil, nil
	}
	e = &drcEntry{done: make(chan struct{})}
	d.entries[seq] = e
	d.mu.Unlock()
	return drcExec, nil, e
}

// commit records the executed reply for an entry claimed by begin and
// evicts the oldest completed entries beyond cap, returning how many were
// evicted. The stored reply is a tag-free copy; hits re-stamp the
// replay's own tag.
func (d *drcCache) commit(seq uint64, e *drcEntry, rep *fsrpc.Reply) (evicted int64) {
	cp := *rep
	cp.Tag = 0
	e.rep = &cp
	close(e.done)
	d.mu.Lock()
	d.order = append(d.order, seq)
	for len(d.order) > d.cap {
		victim := d.order[0]
		d.order = d.order[1:]
		delete(d.entries, victim)
		if victim > d.horizon {
			d.horizon = victim
		}
		evicted++
	}
	d.mu.Unlock()
	return evicted
}

// state returns the session's resumable state.
func (s *session) state() *sessState { return s.st.Load() }

// tok returns the state's token ("" while anonymous). The promote path in
// hello names a published state in place, so any read that does not hold
// s.mu must go through hmu to see the write safely.
func (st *sessState) tok() string {
	st.hmu.Lock()
	defer st.hmu.Unlock()
	return st.token
}

// setTok names the state. The caller holds s.mu (the only writer runs
// there); hmu publishes the write to lock-free readers — execute, touch,
// session.close — that race the promoting HELLO.
func (st *sessState) setTok(tok string) {
	st.hmu.Lock()
	st.token = tok
	st.hmu.Unlock()
}

// touch stamps the session state's lease clock.
func (s *session) touch(now time.Time) {
	st := s.state()
	if st.tok() != "" {
		st.storeActive(now)
	}
}

func (st *sessState) storeActive(now time.Time) {
	st.hmu.Lock()
	st.lastActive = now.UnixNano()
	st.hmu.Unlock()
}

func (st *sessState) loadActive() int64 {
	st.hmu.Lock()
	defer st.hmu.Unlock()
	return st.lastActive
}

// now returns the server's wall clock (Config.LeaseNow in tests).
func (s *Server) now() time.Time {
	if s.cfg.LeaseNow != nil {
		return s.cfg.LeaseNow()
	}
	return time.Now()
}

// hello services a HELLO request on sess (DESIGN.md §13.9).
//
// An empty token asks for a new named session: the connection's current
// state is promoted in place when it is anonymous (handles opened before
// HELLO survive), or replaced by a fresh one when the connection already
// held a named session (the old state is discarded — its handles close).
//
// A non-empty token resumes: the named state detaches from whichever
// connection last held it (latest wins; the stale connection is torn
// down), this connection's anonymous state is discarded, and the handle
// table and duplicate-reply cache carry on. An unknown or lease-expired
// token fails with ESTALE and leaves the connection's current state
// untouched, so the client can HELLO("") for a fresh session. The reply is
// built in rep.
func (s *Server) hello(sess *session, q *fsrpc.Request, rep *fsrpc.Reply) {
	*rep = fsrpc.Reply{Op: q.Op, Tag: q.Tag, Lease: int64(s.cfg.SessionLease)}
	now := s.now()

	if q.Token == "" {
		var discarded *sessState
		s.mu.Lock()
		old := sess.state()
		if old.token == "" {
			// Promote the anonymous state in place. The DRC capacity was
			// already set at newSessState; only the token changes, via
			// setTok so readers that skip s.mu see it safely.
			s.tokenSeq++
			tok := fmt.Sprintf("s%016x", s.tokenSeq)
			old.setTok(tok)
			s.named[tok] = old
			old.cur = sess
			rep.Token = tok
		} else {
			// A fresh session on a connection that already had one: the old
			// state is abandoned.
			delete(s.named, old.token)
			old.cur = nil
			discarded = old
			st := newSessState(s.cfg.DRCEntries)
			s.tokenSeq++
			st.token = fmt.Sprintf("s%016x", s.tokenSeq)
			s.named[st.token] = st
			st.cur = sess
			sess.st.Store(st)
			rep.Token = st.token
		}
		s.mu.Unlock()
		if discarded != nil {
			discarded.closeHandles()
		}
		sess.touch(now)
		return
	}

	s.mu.Lock()
	st, ok := s.named[q.Token]
	if ok && st.cur == nil && s.cfg.SessionLease > 0 && now.UnixNano()-st.loadActive() > int64(s.cfg.SessionLease) {
		// Lazy expiry: the lease ran out while the state sat detached;
		// treat the token as gone. A state still attached to a live
		// connection is never expired (the ExpireSessions invariant) — it
		// is taken over via the latest-wins path below instead.
		delete(s.named, q.Token)
		s.mu.Unlock()
		st.closeHandles()
		s.m.sessExpire.Inc()
		*rep = fsrpc.Reply{Op: q.Op, Tag: q.Tag, Status: fsrpc.StatusStale}
		return
	}
	if !ok {
		s.mu.Unlock()
		*rep = fsrpc.Reply{Op: q.Op, Tag: q.Tag, Status: fsrpc.StatusStale}
		return
	}
	stale := st.cur
	if stale == sess {
		stale = nil
	}
	st.cur = sess
	anon := sess.state()
	sess.st.Store(st)
	s.mu.Unlock()

	if stale != nil {
		// Latest wins: the previous holder (usually a dead transport the
		// server has not noticed yet) is torn down. It keeps pointing at st
		// on purpose: requests it already admitted to the worker queue must
		// keep executing against the shared duplicate-reply cache, or a
		// replay of the same sequence on this connection could apply the
		// mutation a second time. close is safe on a shared named state —
		// it only closes handles for anonymous ones — and detachLocked
		// only clears cur when it still points at the closing session.
		stale.close()
	}
	if anon != st && anon.tok() == "" {
		anon.closeHandles()
	}
	st.storeActive(now)
	s.m.sessResume.Inc()
	rep.Token = st.tok()
	rep.Resumed = true
}

// detach clears the state's connection attachment if sess still holds it.
// Caller holds s.mu.
func (s *Server) detachLocked(sess *session) {
	if st := sess.state(); st.cur == sess {
		st.cur = nil
	}
}

// ExpireSessions sweeps the named-session table once, expiring every
// DETACHED state idle past Config.SessionLease: handles close, the
// duplicate-reply cache is dropped, and a later HELLO with the token gets
// ESTALE. States still attached to a live connection are never expired —
// the lease protects server memory from vanished clients, not from idle
// ones. Returns the number of sessions expired. The janitor goroutine
// calls this periodically when SessionLease > 0; tests call it directly.
func (s *Server) ExpireSessions() int {
	if s.cfg.SessionLease <= 0 {
		return 0
	}
	now := s.now().UnixNano()
	var victims []*sessState
	s.mu.Lock()
	tokens := make([]string, 0, len(s.named))
	for tok := range s.named {
		tokens = append(tokens, tok)
	}
	sort.Strings(tokens)
	for _, tok := range tokens {
		st := s.named[tok]
		if st.cur == nil && now-st.loadActive() > int64(s.cfg.SessionLease) {
			delete(s.named, tok)
			victims = append(victims, st)
		}
	}
	s.mu.Unlock()
	for _, st := range victims {
		st.closeHandles()
		s.m.sessExpire.Inc()
	}
	return len(victims)
}

// janitor periodically expires idle detached sessions until Shutdown.
func (s *Server) janitor(period time.Duration) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.ExpireSessions()
		}
	}
}
