// Package registry is affidavitd's one cache of warm explanation
// sessions. The /explain path keeps a session per table (a shared
// dictionary pool plus, in chain mode, the warm-start tuple); the
// snapshot catalog keeps one per registered table, positioned at the
// chain's head snapshot. Both live here under one eviction policy: an LRU
// cap on the entry count and a TTL on idleness, so neither a stream of
// distinct table names nor a growing catalog can pin memory forever.
//
// Entries are keyed by namespace and table, so an /explain table and a
// catalog table of the same name never share warm state. Eviction only
// drops the cached session; the next use re-creates it (a catalog chain
// re-seeds from its head snapshot's blob, exactly as after a restart,
// when the job store keeps blob bytes).
package registry

import (
	"context"
	"sync"
	"time"

	"affidavit"
)

// Key names one cached session.
type Key struct {
	// Namespace separates the registry's users ("explain", "catalog").
	Namespace string
	// Table is the user's table name within the namespace.
	Table string
}

func (k Key) less(o Key) bool {
	if k.Namespace != o.Namespace {
		return k.Namespace < o.Namespace
	}
	return k.Table < o.Table
}

// Entry is one cached session.
type Entry struct {
	Session *affidavit.Session
	// Head is the snapshot id at the session's chain head ("" when the
	// session tracks no lineage, as on the /explain path).
	Head string
}

type slot struct {
	Entry
	lastUse time.Time
}

// Registry is the bounded session cache. It is safe for concurrent use.
type Registry struct {
	max int           // LRU cap on entries; ≤ 0 = unlimited
	ttl time.Duration // idle lifetime; ≤ 0 = entries never expire
	now func() time.Time

	mu      sync.Mutex
	slots   map[Key]*slot
	evicted int
}

// New returns an empty registry holding at most max entries (≤ 0 =
// unlimited) that expire after ttl idle (≤ 0 = never). now is the clock;
// nil means time.Now.
func New(max int, ttl time.Duration, now func() time.Time) *Registry {
	if now == nil {
		now = time.Now
	}
	return &Registry{max: max, ttl: ttl, now: now, slots: make(map[Key]*slot)}
}

// Get returns key's entry, refreshing its last-use stamp.
func (r *Registry) Get(key Key) (Entry, bool) {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	sl, ok := r.slots[key]
	if !ok {
		return Entry{}, false
	}
	sl.lastUse = now
	return sl.Entry, true
}

// GetOrCreate returns key's entry, storing create's on first use.
func (r *Registry) GetOrCreate(key Key, create func() Entry) Entry {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if sl, ok := r.slots[key]; ok {
		sl.lastUse = now
		return sl.Entry
	}
	e := create()
	r.putLocked(key, e, now)
	return e
}

// Put stores e under key, replacing any previous entry.
func (r *Registry) Put(key Key, e Entry) {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.putLocked(key, e, now)
}

// putLocked stores e, first dropping least-recently-used entries while a
// new key would exceed the cap (ties break on the smaller key, for
// determinism).
func (r *Registry) putLocked(key Key, e Entry, now time.Time) {
	if _, ok := r.slots[key]; !ok && r.max > 0 {
		for len(r.slots) >= r.max {
			var victim Key
			var oldest *slot
			for k, sl := range r.slots {
				if oldest == nil || sl.lastUse.Before(oldest.lastUse) ||
					(sl.lastUse.Equal(oldest.lastUse) && k.less(victim)) {
					victim, oldest = k, sl
				}
			}
			delete(r.slots, victim)
			r.evicted++
		}
	}
	r.slots[key] = &slot{Entry: e, lastUse: now}
}

// EvictExpired drops every entry idle since before now−TTL and reports
// how many it removed. No-op when the TTL is unset.
func (r *Registry) EvictExpired(now time.Time) int {
	if r.ttl <= 0 {
		return 0
	}
	cutoff := now.Add(-r.ttl)
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for key, sl := range r.slots {
		if sl.lastUse.Before(cutoff) {
			delete(r.slots, key)
			n++
		}
	}
	r.evicted += n
	return n
}

// Janitor runs EvictExpired periodically until ctx ends; it returns at
// once when the TTL is unset. The sweep period is a quarter of the TTL,
// clamped to [1s, 1m], so an expired entry lingers at most ~25% past its
// deadline.
func (r *Registry) Janitor(ctx context.Context) {
	if r.ttl <= 0 {
		return
	}
	every := min(max(r.ttl/4, time.Second), time.Minute)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			r.EvictExpired(now)
		}
	}
}

// Sessions returns the namespace's cached sessions by table name.
func (r *Registry) Sessions(namespace string) map[string]*affidavit.Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*affidavit.Session)
	for key, sl := range r.slots {
		if key.Namespace == namespace {
			out[key.Table] = sl.Session
		}
	}
	return out
}

// Evicted counts the entries dropped by the cap or the TTL so far.
func (r *Registry) Evicted() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}
