package obs

import "sync"

// Name is an interned identifier: an integer handle into the package's
// append-only intern table. Event identity fields (task, node, element)
// are Names so that building and fanning out an event on the simulation
// hot path moves one machine word instead of hashing and copying strings;
// sinks resolve the text lazily, at encode time, via String.
//
// The zero Name resolves to "". Names are comparable, and two Names are
// == exactly when their resolved strings are equal — the table is global
// and deduplicating, so equal strings intern to the same handle across
// engines, which keeps differential tests' reflect.DeepEqual working.
type Name int32

// nameTable is the process-wide intern table. Interning takes the write
// lock only on first sight of a string; resolution takes the read lock
// and an index. The table only grows: node/element IDs and fault details
// form a small recurring set, but every distinct task ID a traced run
// interns stays for the life of the process, so the grid engine interns
// only when a sink will read the handles.
var nameTable = struct {
	sync.RWMutex
	ids  map[string]Name
	strs []string
}{ids: make(map[string]Name)}

// Str interns a string and returns its Name. Safe for concurrent use.
// Hot paths should intern once and reuse the handle; Str itself still
// hashes the string.
func Str(s string) Name {
	if s == "" {
		return 0
	}
	nameTable.RLock()
	n, ok := nameTable.ids[s]
	nameTable.RUnlock()
	if ok {
		return n
	}
	nameTable.Lock()
	defer nameTable.Unlock()
	if n, ok := nameTable.ids[s]; ok {
		return n
	}
	nameTable.strs = append(nameTable.strs, s)
	n = Name(len(nameTable.strs)) // 1-based; 0 is the empty name
	nameTable.ids[s] = n
	return n
}

// String resolves the interned text. The zero Name is "".
func (n Name) String() string {
	if n == 0 {
		return ""
	}
	nameTable.RLock()
	defer nameTable.RUnlock()
	i := int(n) - 1
	if i < 0 || i >= len(nameTable.strs) {
		return ""
	}
	return nameTable.strs[i]
}
