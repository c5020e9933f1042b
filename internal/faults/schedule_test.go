package faults

import (
	"sort"

	"repro/internal/sim"
)

// Schedule is the reference a Cursor is checked against: it builds the
// whole timeline of NewCursor's arguments, three Poisson processes each
// on its own split of rng, and sorts it by (Time, Seq, Kind). Seq is
// assigned in generation order, so it breaks ties across processes; Kind
// puts a zero-length outage's crash before its recovery.
func Schedule(rng *sim.RNG, spec Spec, nodeIDs []string) ([]Event, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !spec.Enabled() || len(nodeIDs) == 0 {
		return nil, nil
	}
	var events []Event
	var seq uint64
	next := func() uint64 { seq++; return seq }

	if spec.CrashRate > 0 {
		r := rng.Split(1)
		for t := sim.Time(r.ExpFloat64() / spec.CrashRate); float64(t) <= spec.HorizonSeconds; t += sim.Time(r.ExpFloat64() / spec.CrashRate) {
			id := next()
			victim := nodeIDs[r.Intn(len(nodeIDs))]
			outage := sim.Time(r.ExpFloat64() * spec.MeanOutageSeconds)
			events = append(events,
				Event{Time: t, Kind: KindNodeCrash, Node: victim, Seq: id},
				Event{Time: t + outage, Kind: KindNodeRecover, Node: victim, Seq: id})
		}
	}
	if spec.SEURate > 0 {
		r := rng.Split(2)
		for t := sim.Time(r.ExpFloat64() / spec.SEURate); float64(t) <= spec.HorizonSeconds; t += sim.Time(r.ExpFloat64() / spec.SEURate) {
			events = append(events, Event{
				Time: t, Kind: KindSEU, Seq: next(),
				Node:     nodeIDs[r.Intn(len(nodeIDs))],
				Selector: r.Uint64(),
			})
		}
	}
	if spec.LinkFaultRate > 0 {
		r := rng.Split(3)
		for t := sim.Time(r.ExpFloat64() / spec.LinkFaultRate); float64(t) <= spec.HorizonSeconds; t += sim.Time(r.ExpFloat64() / spec.LinkFaultRate) {
			id := next()
			victim := nodeIDs[r.Intn(len(nodeIDs))]
			dur := sim.Time(r.ExpFloat64() * spec.MeanLinkFaultSeconds)
			part := r.Float64() < spec.PartitionShare
			events = append(events,
				Event{Time: t, Kind: KindLinkDegrade, Node: victim, Seq: id, Factor: spec.LinkDegradeFactor, Partition: part},
				Event{Time: t + dur, Kind: KindLinkRestore, Node: victim, Seq: id, Partition: part})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Kind < b.Kind
	})
	return events, nil
}
