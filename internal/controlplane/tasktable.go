package controlplane

import (
	"encoding/binary"
	"hash/maphash"
	"math"
)

// taskSeed seeds every task table's hash. It is drawn once per process,
// so a tenant cannot choose IDs whose hashes collide; what a table holds
// and the order it holds it in never depend on it.
var taskSeed = maphash.MakeSeed()

// taskTable is a tenant's record of every task it accepted: what status,
// cancel and the duplicate-ID check read back. It is packed. Each task
// is one record in a byte arena, in acceptance order: its state, its
// ID's length as a uvarint (one byte below 128) and the ID. An
// open-addressed index, at most half full, holds each record's offset
// plus one (0 is an empty slot) at the first free slot from its ID's
// hash.
type taskTable struct {
	arena []byte
	index []uint32
	n     int // records
}

// state returns id's state and whether the table holds id. A nil table
// holds nothing.
func (tt *taskTable) state(id string) (taskState, bool) {
	if tt == nil {
		return 0, false
	}
	slot, ok := tt.find(id)
	if !ok {
		return 0, false
	}
	return taskState(tt.arena[tt.index[slot]-1]), true
}

// set records st as the state of id, which the table holds.
func (tt *taskTable) set(id string, st taskState) {
	slot, ok := tt.find(id)
	if !ok {
		panic("controlplane: settling a task its tenant never accepted")
	}
	tt.arena[tt.index[slot]-1] = byte(st)
}

// add records id, which the table does not hold, in state st. It
// records nothing and returns false once the arena holds 4 GiB, past
// which a record's offset plus one would not fit an index slot.
func (tt *taskTable) add(id string, st taskState) bool {
	off := len(tt.arena)
	if uint64(off) >= math.MaxUint32 {
		return false
	}
	if 2*(tt.n+1) > len(tt.index) {
		tt.grow()
	}
	tt.arena = binary.AppendUvarint(append(tt.arena, byte(st)), uint64(len(id)))
	//reconlint:sanitized a wire ID reaches the table only once TaskSpec.Validate has capped it at MaxNameBytes, and the arena holds only records the table wrote
	tt.arena = append(tt.arena, id...)
	slot, _ := tt.find(id)
	tt.index[slot] = uint32(off) + 1
	tt.n++
	return true
}

// find returns the slot of id's record and true, or the empty slot
// where it would go and false.
func (tt *taskTable) find(id string) (int, bool) {
	if len(tt.index) == 0 {
		return 0, false
	}
	mask := len(tt.index) - 1
	for i := int(maphash.String(taskSeed, id)) & mask; ; i = (i + 1) & mask {
		at := tt.index[i]
		if at == 0 {
			return i, false
		}
		if rid, _ := tt.record(int(at) - 1); string(rid) == id {
			return i, true
		}
	}
}

// record returns the ID of the record at off and the next record's
// offset.
func (tt *taskTable) record(off int) (id []byte, next int) {
	n, w := binary.Uvarint(tt.arena[off+1:])
	start := off + 1 + w
	return tt.arena[start : start+int(n)], start + int(n)
}

// grow doubles the index, or makes its first eight slots, and places
// every record in it again.
func (tt *taskTable) grow() {
	index := make([]uint32, max(8, 2*len(tt.index)))
	mask := len(index) - 1
	for off := 0; off < len(tt.arena); {
		id, next := tt.record(off)
		i := int(maphash.Bytes(taskSeed, id)) & mask
		for index[i] != 0 {
			i = (i + 1) & mask
		}
		index[i] = uint32(off) + 1
		off = next
	}
	tt.index = index
}
