package main

import (
	"container/list"
	"net/http"
	"sync"
)

// idemRecord is one completed idempotent request as journaled on disk and
// replayed to retries: the key, the recorded HTTP outcome and the exact
// response body the original caller saw. The journal stores it as a binary
// frame (persist.go); the JSON tags decode journals written as JSON lines
// before that format, whose Body is base64.
type idemRecord struct {
	Key    string `json:"key"`
	Status int    `json:"status"`
	Body   []byte `json:"body"`
}

// idemEntry is one key's slot in the table. done is closed when the first
// execution completes; waiters replay status/body afterwards.
type idemEntry struct {
	key    string
	done   chan struct{}
	status int
	body   []byte
}

func (e *idemEntry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// idemTable is a bounded per-session LRU of idempotent request outcomes.
// Exactly-once semantics within a process come from in-flight coalescing:
// the first request for a key owns execution, concurrent duplicates block on
// done and replay the recorded outcome. Exactly-once across restarts comes
// from the journal (persist.go): records are fsync'd before the owning
// response is released, and the table is rebuilt from the journal on restore.
//
// The table is bounded: once full, the least-recently-touched COMPLETED entry
// is discarded (in-flight entries are never evicted — their owner still needs
// to complete them). A retry arriving after its record was evicted re-executes;
// the bound is the standard dedup-window trade-off, sized so that any retry
// inside a sane client backoff horizon hits its record.
type idemTable struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently touched
	items map[string]*list.Element
}

const idemTableCap = 512

func newIdemTable(capacity int) *idemTable {
	if capacity <= 0 {
		capacity = idemTableCap
	}
	return &idemTable{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// begin claims the key. owner=true means the caller must execute the request
// and finish with complete() or abandon(). owner=false means an entry already
// exists: wait on entry.done (it may already be closed) and replay.
func (t *idemTable) begin(key string) (entry *idemEntry, owner bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.items[key]; ok {
		t.ll.MoveToFront(el)
		return el.Value.(*idemEntry), false
	}
	e := &idemEntry{key: key, done: make(chan struct{})}
	t.items[key] = t.ll.PushFront(e)
	t.evictLocked()
	return e, true
}

// complete records the outcome and releases all waiters.
func (t *idemTable) complete(e *idemEntry, status int, body []byte) {
	t.mu.Lock()
	e.status = status
	e.body = body
	t.mu.Unlock()
	close(e.done)
}

// abandon removes an in-flight entry whose execution ended in a transient,
// non-recordable outcome (queue full, shed, 5xx): the next retry must
// re-execute, not replay a failure. Waiters are released and observe
// status==0, which sends them back through execution themselves.
func (t *idemTable) abandon(e *idemEntry) {
	t.mu.Lock()
	if el, ok := t.items[e.key]; ok && el.Value.(*idemEntry) == e {
		t.ll.Remove(el)
		delete(t.items, e.key)
	}
	t.mu.Unlock()
	close(e.done)
}

// insert seeds a completed record (journal replay on session restore).
func (t *idemTable) insert(rec idemRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.items[rec.Key]; ok {
		e := el.Value.(*idemEntry)
		if e.completed() {
			e.status, e.body = rec.Status, rec.Body
		}
		t.ll.MoveToFront(el)
		return
	}
	e := &idemEntry{key: rec.Key, done: make(chan struct{}), status: rec.Status, body: rec.Body}
	close(e.done)
	t.items[rec.Key] = t.ll.PushFront(e)
	t.evictLocked()
}

// records returns the completed entries oldest-first — the compaction set the
// journal is rewritten to on eviction, bounded exactly like the table.
func (t *idemTable) records() []idemRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	recs := make([]idemRecord, 0, t.ll.Len())
	for el := t.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*idemEntry)
		if e.completed() {
			recs = append(recs, idemRecord{Key: e.key, Status: e.status, Body: e.body})
		}
	}
	return recs
}

// evictLocked discards least-recently-touched completed entries past capacity.
func (t *idemTable) evictLocked() {
	for el := t.ll.Back(); el != nil && t.ll.Len() > t.cap; {
		prev := el.Prev()
		if e := el.Value.(*idemEntry); e.completed() {
			t.ll.Remove(el)
			delete(t.items, e.key)
		}
		el = prev
	}
}

// responseRecorder buffers a handler's response so the idempotency layer can
// journal it before release and replay it to retries. Only the status and
// body are captured; Content-Type is reconstructed on replay (all recordable
// fastd responses are JSON).
type responseRecorder struct {
	header http.Header
	status int
	body   []byte
}

func newResponseRecorder() *responseRecorder {
	return &responseRecorder{header: make(http.Header), status: http.StatusOK}
}

func (rr *responseRecorder) Header() http.Header { return rr.header }

func (rr *responseRecorder) WriteHeader(status int) { rr.status = status }

func (rr *responseRecorder) Write(p []byte) (int, error) {
	rr.body = append(rr.body, p...)
	return len(p), nil
}

// recordable reports whether the captured outcome is deterministic and safe
// to pin to the key forever: success (200) and validation rejections (400/404)
// would recur on any retry. Transient admission/ladder outcomes (429, 503,
// 504, 408, 500) must NOT be recorded — the whole point of the client's retry
// is that they can succeed next time.
func (rr *responseRecorder) recordable() bool {
	switch rr.status {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		return true
	}
	return false
}
