package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// CSV is the bounded-memory streaming trace sink: every event is encoded
// and written through a buffered writer immediately, so memory stays O(1)
// in the run length — unlike Recorder, which retains the whole run. The
// encoding is byte-identical to encoding/csv's (header
// time_s,kind,task,node,element, minimal quoting), so any standard CSV
// tooling reads it. Samples are discarded; pair a CSV with a Timeline
// via Multi when both are wanted.
//
// Construct with NewCSV; a zero CSV is a valid no-op sink.
type CSV struct {
	mu     sync.Mutex
	w      *bufio.Writer // guarded by mu
	err    error         // guarded by mu; first write error, latched
	closed bool          // guarded by mu
	header bool          // guarded by mu
	row    []byte        // guarded by mu; reused per event to avoid per-row allocation
}

// NewCSV returns a streaming CSV sink over w.
func NewCSV(w io.Writer) *CSV {
	return &CSV{w: bufio.NewWriter(w)}
}

// Emit encodes and writes one event row (plus the header before the first
// row). After a write error the sink goes quiet and Flush/Close report it.
func (c *CSV) Emit(ev Event) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.w == nil || c.closed || c.err != nil {
		return
	}
	if !c.writeHeaderLocked() {
		return
	}
	row := strconv.AppendFloat(c.row[:0], float64(ev.Time), 'g', -1, 64)
	row = append(row, ',')
	row = appendCSVField(row, string(ev.Kind))
	row = append(row, ',')
	row = appendCSVField(row, ev.TaskID.String())
	row = append(row, ',')
	row = appendCSVField(row, ev.Node.String())
	row = append(row, ',')
	row = appendCSVField(row, ev.Element.String())
	row = append(row, '\n')
	c.row = row
	if _, err := c.w.Write(row); err != nil {
		c.err = err
	}
}

// Sample is discarded: the CSV format carries events only.
func (c *CSV) Sample(Sample) {}

// Flush pushes buffered rows to the underlying writer and returns the
// first error seen so far.
func (c *CSV) Flush() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

// Close flushes and stops the sink; later Emits are no-ops. An event-free
// sink still emits the header. Close is idempotent and keeps returning
// the latched error.
func (c *CSV) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.err
	}
	c.closed = true
	return c.flushLocked()
}

// Err returns the latched write error, if any.
func (c *CSV) Err() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *CSV) flushLocked() error {
	if c.w == nil {
		return c.err
	}
	if c.err != nil {
		return c.err
	}
	if !c.writeHeaderLocked() {
		return c.err
	}
	if err := c.w.Flush(); err != nil {
		c.err = err
	}
	return c.err
}

func (c *CSV) writeHeaderLocked() bool {
	if c.header {
		return true
	}
	c.header = true
	if _, err := c.w.WriteString("time_s,kind,task,node,element\n"); err != nil {
		c.err = err
		return false
	}
	return true
}

// appendCSVField appends one field, quoting only when the value needs it
// (a comma, quote, CR or LF anywhere, a leading Unicode space, or the
// whole field `\.`) — the same minimal quoting encoding/csv applies,
// keeping streamed output byte-identical to encoding/csv's.
func appendCSVField(dst []byte, s string) []byte {
	first, _ := utf8.DecodeRuneInString(s)
	if !strings.ContainsAny(s, ",\"\r\n") && !unicode.IsSpace(first) && s != `\.` {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			dst = append(dst, '"', '"')
		} else {
			dst = append(dst, s[i])
		}
	}
	return append(dst, '"')
}
