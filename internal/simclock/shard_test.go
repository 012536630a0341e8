package simclock

import "testing"

// Commit replays every shard's posts in (when, shard, seq) order, however
// the posts interleaved, and keeps no fired closure reachable afterwards.
func TestCommitOrderAndRelease(t *testing.T) {
	cm := NewCommitter(3)
	var got []string
	post := func(shard int, when Cycles, tag string) {
		cm.Post(shard, when, func() { got = append(got, tag) })
	}
	post(2, 10, "c10")
	post(0, 20, "a20")
	post(1, 10, "b10")
	post(0, 10, "a10-1")
	post(0, 10, "a10-2")
	post(2, 5, "c5")
	if n := cm.Commit(); n != 6 {
		t.Fatalf("Commit fired %d closures, want 6", n)
	}
	want := []string{"c5", "a10-1", "a10-2", "b10", "c10", "a20"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("replay order %v, want %v", got, want)
		}
	}
	if cm.Pending() {
		t.Error("posts still pending after Commit")
	}
	held := func(es []commitEntry) bool {
		for _, e := range es[:cap(es)] {
			if e.fn != nil {
				return true
			}
		}
		return false
	}
	if held(cm.merged) {
		t.Error("the merge buffer still holds fired closures")
	}
	for i := range cm.bufs {
		if held(cm.bufs[i].entries) {
			t.Errorf("shard %d's log still holds fired closures", i)
		}
	}
}
