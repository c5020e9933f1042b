package controlplane

import (
	"strings"
	"testing"
)

// each calls f on every record of the table in acceptance order.
func (tt *taskTable) each(f func(id string, st taskState)) {
	for off := 0; off < len(tt.arena); {
		id, next := tt.record(off)
		f(string(id), taskState(tt.arena[off]))
		off = next
	}
}

// TestTaskTable checks the packed table against a map over IDs that
// prefix one another, IDs of one byte and of lengths around the
// uvarint's one-byte limit and MaxNameBytes and past it (Server.Do
// takes a task spec no decode validated), and enough tasks to grow the
// index many times: every ID reads back its state, settling one
// changes no other, an absent ID reads absent, and the records keep
// acceptance order.
func TestTaskTable(t *testing.T) {
	var ids []string
	for i := 0; i < 5000; i++ {
		ids = append(ids, taskID("t", i))
	}
	ids = append(ids, "x", "t-")
	for _, n := range []int{127, 128, MaxNameBytes, 20_000} {
		ids = append(ids, strings.Repeat("y", n))
	}
	tt := new(taskTable)
	want := map[string]taskState{}
	for i, id := range ids {
		st := taskState(i % 4)
		if !tt.add(id, st) {
			t.Fatalf("add(%q) refused", id)
		}
		want[id] = st
		if i%7 == 0 {
			settled := ids[i/2]
			tt.set(settled, stateCanceled)
			want[settled] = stateCanceled
		}
	}
	if tt.n != len(ids) || 2*tt.n > len(tt.index) {
		t.Fatalf("%d records in %d slots, want %d at most half full", tt.n, len(tt.index), len(ids))
	}
	for id, st := range want {
		if got, ok := tt.state(id); !ok || got != st {
			t.Errorf("state(%q) = %v, %v, want %v", id, got, ok, st)
		}
	}
	for _, id := range []string{"", "t", "t-5000", "t-00", strings.Repeat("y", MaxNameBytes-1)} {
		if st, ok := tt.state(id); ok {
			t.Errorf("state(%q) = %v for an ID never added", id, st)
		}
	}
	var order []string
	tt.each(func(id string, st taskState) {
		order = append(order, id)
		if st != want[id] {
			t.Errorf("record %q holds %v, want %v", id, st, want[id])
		}
	})
	if strings.Join(order, ",") != strings.Join(ids, ",") {
		t.Error("records are not in acceptance order")
	}
	var none *taskTable
	for _, empty := range []*taskTable{none, new(taskTable)} {
		if _, ok := empty.state("t"); ok {
			t.Error("an empty table holds an ID")
		}
	}
}
