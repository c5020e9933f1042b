// Package controlplane exercises wiretaint's allocation-size sinks:
// make, strings.Repeat and Builder.Grow sizes, including taint that
// crosses a function boundary through a return value and a channel send.
package controlplane

import "strings"

type Request struct {
	Tenant string `json:"tenant"`
	Count  int    `json:"count"`
}

func alloc(req Request) []byte {
	return make([]byte, req.Count) // want `wire field Request\.Count reaches an allocation size: make`
}

func repeat(req Request) string {
	return strings.Repeat("x", req.Count) // want `wire field Request\.Count reaches an allocation size: strings\.Repeat`
}

func grown(req Request) string {
	var b strings.Builder
	b.Grow(req.Count) // want `wire field Request\.Count reaches an allocation size: strings\.Builder\.Grow`
	b.WriteString(req.Tenant)
	return b.String()
}

// count carries the taint across a function boundary via its return.
func count(req Request) int { return req.Count }

func viaReturn(req Request) []byte {
	return make([]byte, count(req)) // want `wire field Request\.Count reaches an allocation size: make`
}

// The channel hop: a value received from sizeCh is as hostile as the
// wire field that was sent on it.
var sizeCh = make(chan int)

func sendSize(req Request) {
	sizeCh <- req.Count
}

func viaChannel() []byte {
	n := <-sizeCh
	return make([]byte, n) // want `wire field Request\.Count reaches an allocation size: make`
}

func clamped(req Request) []byte {
	return make([]byte, min(req.Count, 1024)) // clamped: clean
}
