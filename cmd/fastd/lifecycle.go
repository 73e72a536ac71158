package main

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/obs"
	shardpkg "github.com/fastfhe/fast/internal/shard"
)

// Session lifecycle: create → (snapshot) → serve ⇄ evict/restore → expire,
// now across N shards.
//
// A session is in exactly one of three registry states:
//
//	resident   in exactly one shard's map, recorded in d.owners: fully
//	           expanded Context, serving requests directly on that shard;
//	persisted  in d.persisted: snapshot on disk only — evicted under resident
//	           pressure / idle TTL, not yet faulted in after a restart, or
//	           migrated off a fenced shard;
//	corrupt    in d.corrupt: the snapshot failed integrity validation; the ID
//	           is tombstoned (410 Gone) so a bad file can never serve a wrong
//	           decrypt, and the daemon keeps running.
//
// Transitions are lazy and request-driven: nothing is restored at startup
// (scan() only recovers IDs), the first request for a persisted session pays
// the restore, and eviction is triggered by create/restore overshoot or the
// idle sweeper. Restores are singleflighted per ID — a stampede of requests
// for one cold session performs one deserialisation.
//
// The owner table is what makes failover correct: a session is served through
// whichever shard currently HOLDS it, which is the ring-routed shard in steady
// state but may be a survivor after its home shard was fenced (and stays the
// survivor after an unfence, until eviction lets it drift home). Routing by
// ring alone would either lose track of failed-over residents or snap them
// back across shards mid-request.

// errUnknownSession is the typed miss for a session ID with no resident
// entry, no snapshot and no tombstone — mapped to 404 by the error ladder.
var errUnknownSession = errors.New("unknown session")

// resolve maps a session ID to (holding shard, session). The resident path is
// a map read under the registry locks; a persisted ID pays a singleflighted
// restore onto its ring-routed live shard. A resident session whose holding
// shard has been fenced — the window between the ring fencing and onFence
// migrating the registry — returns ErrShardDown (503 + Retry-After): the
// retry finds the snapshot back in the persisted set and restores it on a
// survivor.
func (d *daemon) resolve(id string) (*evalShard, *session, error) {
	for {
		d.mu.Lock()
		if sh := d.owners[id]; sh != nil {
			if sh.fenced() {
				d.mu.Unlock()
				d.mShardDown.Inc()
				return nil, nil, fmt.Errorf("session %q: %w", id, shardpkg.ErrShardDown)
			}
			sh.mu.RLock()
			s := sh.sessions[id]
			sh.mu.RUnlock()
			d.mu.Unlock()
			if s == nil {
				// owners and sh.sessions are updated together under both
				// locks, so this cannot persist — re-read.
				continue
			}
			d.touch(sh, s)
			return sh, s, nil
		}
		if _, bad := d.corrupt[id]; bad {
			d.mu.Unlock()
			return nil, nil, fmt.Errorf("session %q: %w", id, fast.ErrCorruptSnapshot)
		}
		if _, onDisk := d.persisted[id]; !onDisk || d.store == nil {
			d.mu.Unlock()
			return nil, nil, fmt.Errorf("%w %q", errUnknownSession, id)
		}
		// Restore lands on the ring-routed shard — the canonical home among
		// the currently-live members (after a fence this is a survivor; after
		// an unfence it is the original home again).
		home, err := d.ring.Owner(id)
		if err != nil {
			d.mu.Unlock()
			d.mShardDown.Inc()
			return nil, nil, err
		}
		sh := d.shards[home]
		sh.mu.Lock()
		if ch, inflight := sh.restoring[id]; inflight {
			sh.mu.Unlock()
			d.mu.Unlock()
			<-ch // another request is already restoring; wait and re-check
			continue
		}
		ch := make(chan struct{})
		sh.restoring[id] = ch
		sh.mu.Unlock()
		d.mu.Unlock()

		s, err := d.restoreSession(sh, id) // disk + NTT tables; never under locks
		d.mu.Lock()
		sh.mu.Lock()
		delete(sh.restoring, id)
		if err != nil {
			if errors.Is(err, fast.ErrCorruptSnapshot) {
				// Tombstone: the file stays on disk for forensics but the ID
				// will never be restored — wrong decrypts are impossible. The
				// occupancy slot is released: a tombstone holds no keys.
				d.corrupt[id] = struct{}{}
				delete(d.persisted, id)
				d.mCorrupt.Inc()
				d.occupancy.Add(-1)
			}
			sh.mu.Unlock()
			d.mu.Unlock()
			close(ch)
			d.logger.Warn("session restore failed", "session", id, "error", err.Error())
			return nil, nil, err
		}
		if d.ring.Fenced(sh.id) {
			// The shard was fenced while the restore ran; onFence could not
			// see the half-born session. Discard it — the snapshot stays in
			// the persisted set, and the retry restores on a survivor.
			sh.mu.Unlock()
			d.mu.Unlock()
			close(ch)
			d.mShardDown.Inc()
			return nil, nil, fmt.Errorf("session %q: %w", id, shardpkg.ErrShardDown)
		}
		delete(d.persisted, id)
		sh.sessions[id] = s
		d.owners[id] = sh
		s.lruEl = sh.lru.PushFront(s)
		s.lastUsed = time.Now()
		sh.mu.Unlock()
		d.mu.Unlock()
		close(ch)
		d.mRestored.Inc()
		d.mSessionCount.Set(d.resident.Add(1))
		d.updateOccupancy()
		d.logger.Info("session restored", "session", id, "shard", sh.id, "restores", s.meta.Restores)
		d.enforceResident(sh)
		return sh, s, nil
	}
}

// restoreSession rebuilds one session from its snapshot: checksum-verified
// decode, a Restores bump (fresh encryptor randomness epoch — a restored
// session must never replay pre-crash encryption randomness), key expansion
// against the deterministically recompiled parameters, and an idempotency
// table rebuilt from the journal. The bumped count is made durable in the
// session's epoch record so the NEXT crash also lands on a fresh epoch; the
// snapshot itself is not rewritten, and the journal only when it holds more
// than IdemCap records (or must be rewritten, see loadIdem).
func (d *daemon) restoreSession(sh *evalShard, id string) (*session, error) {
	defer d.mRestoreNs.ObserveSince(time.Now())
	snap, err := d.store.loadSnapshot(id)
	if err != nil {
		return nil, err
	}
	snap.Meta.Restores++
	opts := []fast.Option{
		fast.WithObserver(d.observer),
		// The restored context subscribes to the shared evk tier under the
		// RESTORING shard's tag: after a failover the survivor's lookups hit
		// entries the fenced shard filled — the cross-shard reuse the shared
		// tier exists for.
		fast.WithEvkCache(d.evk, id, sh.id),
	}
	if fs := snap.Meta.FaultScenario; fs != "" && fs != "none" {
		plan, err := fast.FaultScenario(fs)
		if err != nil {
			return nil, fmt.Errorf("session %q fault scenario: %w", id, err)
		}
		opts = append(opts, fast.WithFaultPlan(plan))
	}
	fctx, err := snap.Restore(opts...)
	if err != nil {
		return nil, err
	}
	sess := &session{
		id:    id,
		ctx:   fctx,
		cm:    costmodel.ForContext(snap.Config.LogN, fctx.MaxLevel()),
		plans: newPlanCache(planCacheCap, d.mPlanHits, d.mPlanMisses),
		idem:  newIdemTable(d.cfg.IdemCap),
		meta:  snap.Meta,
	}
	recs, clean := d.store.loadIdem(id)
	for _, rec := range recs {
		sess.idem.insert(rec)
	}
	sess.journalRecs.Store(int64(len(recs)))
	d.compactJournal(sess, !clean)
	sess.persisted = d.store.saveEpochRetry(id, sess.meta.Restores) == nil
	return sess, nil
}

// compactJournal rewrites a session's idempotency journal to its bounded
// in-memory window when the file holds more than IdemCap records, or when
// force is set. Within the cap the journal is left alone: restore and evict
// then cost no journal I/O beyond the one read at restore, and the file
// stays bounded by IdemCap after an evict and IdemCap plus the appends since
// then after a restore.
func (d *daemon) compactJournal(s *session, force bool) {
	if !force && s.journalRecs.Load() <= int64(d.cfg.IdemCap) {
		return
	}
	recs := s.idem.records()
	if err := d.store.rewriteIdem(s.id, recs); err != nil {
		d.logger.Warn("idempotency journal compaction failed", "session", s.id, "error", err.Error())
		return
	}
	s.journalRecs.Store(int64(len(recs)))
	d.mJournalRewrites.Inc()
}

// touch marks a session recently used (LRU front + idle clock reset) on its
// holding shard.
func (d *daemon) touch(sh *evalShard, s *session) {
	if d.store == nil {
		return
	}
	sh.mu.Lock()
	if s.lruEl != nil {
		sh.lru.MoveToFront(s.lruEl)
	}
	s.lastUsed = time.Now()
	sh.mu.Unlock()
}

// enforceResident evicts least-recently-used sessions from one shard until
// its resident count is within its slice of MaxResident. Called after every
// create and restore on that shard.
func (d *daemon) enforceResident(sh *evalShard) {
	if d.store == nil {
		return
	}
	for {
		sh.mu.RLock()
		over := len(sh.sessions) > sh.maxResident
		var victim *session
		if over {
			if el := sh.lru.Back(); el != nil {
				victim = el.Value.(*session)
			}
		}
		sh.mu.RUnlock()
		if victim == nil {
			return
		}
		if !d.evictSession(sh, victim) {
			return // victim unpersistable: durability beats the memory bound
		}
	}
}

// evictSession releases one resident session to disk: snapshot-if-dirty,
// journal compaction when over IdemCap, then an atomic resident→persisted
// registry flip (shard map + owner table together) and plan-cache drop.
// Returns false when the session could not be persisted — losing key
// material to enforce a memory bound is never acceptable, so the session
// stays resident (counted via fastd.store.write_failures).
func (d *daemon) evictSession(sh *evalShard, victim *session) bool {
	defer d.mEvictNs.ObserveSince(time.Now())
	victim.mu.Lock()
	dirty := !victim.persisted
	victim.mu.Unlock()
	if dirty {
		if d.store.saveSnapshotRetry(victim.ctx, victim.meta) != nil {
			return false
		}
		victim.mu.Lock()
		victim.persisted = true
		victim.mu.Unlock()
	}
	d.compactJournal(victim, false)

	d.mu.Lock()
	sh.mu.Lock()
	if victim.lruEl == nil {
		// A concurrent evict, delete or fence already claimed it.
		sh.mu.Unlock()
		d.mu.Unlock()
		return true
	}
	sh.lru.Remove(victim.lruEl)
	victim.lruEl = nil
	delete(sh.sessions, victim.id)
	delete(d.owners, victim.id)
	d.persisted[victim.id] = struct{}{}
	sh.mu.Unlock()
	d.mu.Unlock()

	d.mPlanEvicted.Add(uint64(victim.plans.drop()))
	d.mEvicted.Inc()
	d.mSessionCount.Set(d.resident.Add(-1))
	d.updateOccupancy()
	d.logger.Info("session evicted", "session", victim.id, "shard", sh.id)
	return true
}

// sweepIdle is the idle-TTL loop: sessions untouched for SessionTTL are
// evicted to disk, shard by shard. Restore on next use is transparent (modulo
// latency), so the TTL reclaims key-set memory from abandoned keyspaces
// without a client-visible expiry.
func (d *daemon) sweepIdle() {
	defer close(d.sweepDone)
	interval := d.cfg.SessionTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-d.sweepStop:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-d.cfg.SessionTTL)
		for _, sh := range d.shards {
			var victims []*session
			sh.mu.RLock()
			for _, s := range sh.sessions {
				if s.lruEl != nil && s.lastUsed.Before(cutoff) {
					victims = append(victims, s)
				}
			}
			sh.mu.RUnlock()
			for _, s := range victims {
				d.evictSession(sh, s)
			}
		}
	}
}

// updateOccupancy refreshes the sessions.{resident,persisted} gauges.
func (d *daemon) updateOccupancy() {
	d.mu.Lock()
	per := len(d.persisted)
	d.mu.Unlock()
	d.mResident.Set(d.resident.Load())
	d.mPersisted.Set(int64(per))
}

// ---- Idempotent replay -----------------------------------------------------

// withIdempotency gives mutating endpoints exactly-once semantics keyed by
// the client's Idempotency-Key header:
//
//   - the first request for a key executes and its deterministic outcome
//     (200/400/404) is journaled — fsync'd — BEFORE the response is released;
//   - concurrent duplicates coalesce onto the first execution and replay its
//     outcome (marked Idempotency-Replayed: true);
//   - retries after a daemon crash replay from the journal rebuilt on session
//     restore: ordering guarantees a recorded response was durable first, so
//     "client saw a reply" implies "a retry replays that same reply";
//   - transient ladder outcomes (429/503/504/408/500) are never recorded —
//     the retry they invite must re-execute.
//
// Requests without the header bypass the table entirely.
func (d *daemon) withIdempotency(w http.ResponseWriter, r *http.Request, sess *session, h func(w http.ResponseWriter)) {
	key := r.Header.Get("Idempotency-Key")
	if key == "" || sess.idem == nil {
		h(w)
		return
	}
	for {
		e, owner := sess.idem.begin(key)
		if !owner {
			select {
			case <-e.done:
			case <-r.Context().Done():
				d.writeAdmissionError(w, r, fmt.Errorf("awaiting idempotent duplicate: %w", fast.ErrCanceled))
				return
			}
			if e.status == 0 {
				continue // original execution was abandoned (transient): retry owns it now
			}
			d.mIdemReplays.Inc()
			obs.RequestFrom(r.Context()).SetOutcome("idem_replay")
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.Header().Set("Idempotency-Replayed", "true")
			w.WriteHeader(e.status)
			_, _ = w.Write(e.body)
			return
		}

		rr := newResponseRecorder()
		h(rr)
		if rr.recordable() {
			// Durability BEFORE release: once the client can observe this
			// response, a post-crash retry must find its record.
			if d.store != nil && d.store.appendIdemRetry(sess.id, idemRecord{Key: key, Status: rr.status, Body: rr.body}) == nil {
				sess.journalRecs.Add(1)
			}
			sess.idem.complete(e, rr.status, rr.body)
			d.mIdemRecorded.Inc()
		} else {
			sess.idem.abandon(e)
		}
		for k, vs := range rr.header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rr.status)
		_, _ = w.Write(rr.body)
		return
	}
}
