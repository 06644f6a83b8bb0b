package registry

import (
	"testing"
	"time"

	"affidavit"
)

func newSession(t *testing.T) *affidavit.Session {
	t.Helper()
	ex, err := affidavit.New()
	if err != nil {
		t.Fatal(err)
	}
	return ex.Session(nil)
}

// TestNamespacesNeverShare: the same table name in two namespaces is two
// entries, and replacing an entry at the cap evicts nothing.
func TestNamespacesNeverShare(t *testing.T) {
	at := time.Unix(100, 0)
	r := New(2, 0, func() time.Time { return at })
	explain := Key{Namespace: "explain", Table: "x"}
	chain := Key{Namespace: "catalog", Table: "x"}
	a := r.GetOrCreate(explain, func() Entry { return Entry{Session: newSession(t)} })
	r.Put(chain, Entry{Session: newSession(t), Head: "h1"})
	if e, _ := r.Get(chain); e.Session == a.Session || e.Head != "h1" {
		t.Fatal("catalog entry shares the /explain session")
	}
	r.Put(chain, Entry{Session: newSession(t), Head: "h2"})
	if r.Evicted() != 0 {
		t.Fatalf("replacing an entry at the cap evicted %d", r.Evicted())
	}
	if e, _ := r.Get(chain); e.Head != "h2" {
		t.Fatalf("head %q after replacement, want h2", e.Head)
	}
	if got := r.Sessions("explain"); len(got) != 1 || got["x"] != a.Session {
		t.Fatalf("explain namespace holds %v", got)
	}
}

// TestEvictionTieBreak: among equally idle entries the smallest key goes
// first, so eviction order is deterministic.
func TestEvictionTieBreak(t *testing.T) {
	r := New(2, 0, func() time.Time { return time.Unix(100, 0) })
	r.Put(Key{"explain", "b"}, Entry{})
	r.Put(Key{"catalog", "z"}, Entry{})
	r.Put(Key{"explain", "a"}, Entry{})
	if _, ok := r.Get(Key{"catalog", "z"}); ok {
		t.Fatal("evicted the wrong entry: catalog/z sorts first and should go")
	}
	if len(r.Sessions("explain")) != 2 || r.Evicted() != 1 {
		t.Fatalf("explain entries %d, evicted %d", len(r.Sessions("explain")), r.Evicted())
	}
}
