package sessiond

import (
	"testing"
)

func testParams(seed uint64) params {
	return params{resources: 3, rmin: 0.1, seed: seed, init: 5}
}

// peek finds a live session without touching it, so an assertion never
// moves the session's LRU tick.
func (s *Service) peek(id string) (*session, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sess, ok := sh.sessions[id]
	return sess, ok
}

// TestEvictLRUOrdering exercises the eviction rule directly: smallest
// lastTouch tick first, ties broken by the lexicographically smallest ID.
func TestEvictLRUOrdering(t *testing.T) {
	cases := []struct {
		name    string
		touches map[string]uint64
		want    string
	}{
		{"empty shard", nil, ""},
		{"single", map[string]uint64{"only": 9}, "only"},
		{"distinct ticks", map[string]uint64{"a": 3, "b": 1, "c": 2}, "b"},
		{"all tied", map[string]uint64{"c": 5, "a": 5, "b": 5}, "a"},
		{"tie among oldest", map[string]uint64{"z": 1, "m": 1, "q": 7}, "m"},
		{"tie not at oldest", map[string]uint64{"a": 9, "b": 9, "c": 2}, "c"},
		{"zero ticks fresh batch", map[string]uint64{"s10": 0, "s02": 0, "s01": 0}, "s01"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh := &shard{sessions: make(map[string]*session)}
			for id, tick := range tc.touches {
				sh.sessions[id] = &session{id: id, lastTouch: tick}
			}
			victim := sh.evictLRULocked()
			got := ""
			if victim != nil {
				got = victim.id
			}
			if got != tc.want {
				t.Fatalf("evictLRULocked() = %q, want %q", got, tc.want)
			}
			if tc.want != "" {
				if _, still := sh.sessions[tc.want]; still {
					t.Fatalf("victim %q still in shard after eviction", tc.want)
				}
				if len(sh.sessions) != len(tc.touches)-1 {
					t.Fatalf("shard has %d sessions after eviction, want %d",
						len(sh.sessions), len(tc.touches)-1)
				}
			}
		})
	}
}

// TestOpenSemantics covers the open-path state machine: idempotent re-open
// with identical parameters, in-place rebuild on changed parameters, and
// LRU eviction when the shard is full.
func TestOpenSemantics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.SessionsPerShard = 2
	svc, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	a1, res, err := svc.open("a", testParams(1))
	if err != nil || res.existing || res.evicted != "" {
		t.Fatalf("first open = (%+v err=%v), want fresh", res, err)
	}
	// Identical parameters: idempotent, same session object.
	a2, res, err := svc.open("a", testParams(1))
	if err != nil || !res.existing {
		t.Fatalf("idempotent open = (%+v err=%v), want existing", res, err)
	}
	if a1 != a2 {
		t.Fatal("idempotent open returned a different session object")
	}
	// Changed parameters: rebuilt in place, still one session.
	a3, res, err := svc.open("a", testParams(99))
	if err != nil || res.existing || res.evicted != "" {
		t.Fatalf("rebuild open = (%+v err=%v), want fresh rebuild", res, err)
	}
	if a3 == a1 {
		t.Fatal("parameter change did not rebuild the session")
	}
	if svc.sessionCount() != 1 {
		t.Fatalf("sessionCount = %d after rebuild, want 1", svc.sessionCount())
	}
	// Fill to capacity, then overflow: the LRU victim is a (touched at tick
	// 3 by the rebuild) versus b (tick 4).
	if _, _, err := svc.open("b", testParams(2)); err != nil {
		t.Fatalf("open b: %v", err)
	}
	_, res, err = svc.open("c", testParams(3))
	if err != nil {
		t.Fatalf("open c: %v", err)
	}
	if res.evicted != "a" {
		t.Fatalf("overflow evicted %q, want %q", res.evicted, "a")
	}
	if svc.sessionCount() != 2 {
		t.Fatalf("sessionCount = %d after eviction, want 2", svc.sessionCount())
	}
	// The evicted session is gone; the survivors are reachable.
	if _, ok := svc.peek("a"); ok {
		t.Fatal("evicted session a still reachable")
	}
	for _, id := range []string{"b", "c"} {
		if _, ok := svc.peek(id); !ok {
			t.Fatalf("session %s unreachable after unrelated eviction", id)
		}
	}
}
