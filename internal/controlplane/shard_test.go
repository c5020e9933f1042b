package controlplane

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// engineOf is a bare engine carrying what dispatch order reads.
func engineOf(id string, tier Tier) *tenantEngine {
	p := tier.Policy()
	return &tenantEngine{id: id, tier: tier, policy: &p}
}

// ids renders an engine order as its IDs.
func ids(order []*tenantEngine) string {
	var b strings.Builder
	for _, te := range order {
		b.WriteString(te.id)
	}
	return b.String()
}

// TestInsertByPriority pins the dispatch order on hand-picked tier
// sequences: (tier priority, first seen).
func TestInsertByPriority(t *testing.T) {
	tierOf := map[byte]Tier{'f': TierFull, 'v': TierVirtualized, 'b': TierBackground}
	cases := []struct{ tiers, want string }{
		{"", ""},
		{"v", "0"},
		{"vvv", "012"},
		{"bvf", "210"},
		{"fvb", "012"},
		{"bfbvfv", "143502"},
	}
	for _, tc := range cases {
		var order []*tenantEngine
		for i := 0; i < len(tc.tiers); i++ {
			order = insertByPriority(order, engineOf(strconv.Itoa(i), tierOf[tc.tiers[i]]))
		}
		if got := ids(order); got != tc.want {
			t.Errorf("tiers %q: order %q, want %q", tc.tiers, got, tc.want)
		}
	}
}

// TestInsertByPriorityMatchesStableSort: after every new tenant of a
// random tier sequence, the ordered insert leaves exactly the order a
// stable sort of the creation sequence by priority gives.
func TestInsertByPriorityMatchesStableSort(t *testing.T) {
	tiers := []Tier{TierFull, TierVirtualized, TierBackground}
	for seed := uint64(1); seed <= 50; seed++ {
		rng := sim.NewRNG(seed)
		var order, created []*tenantEngine
		for i, n := 0, rng.Intn(120); i < n; i++ {
			te := engineOf(strconv.Itoa(i)+",", tiers[rng.Intn(len(tiers))])
			order = insertByPriority(order, te)
			created = append(created, te)
			want := slices.Clone(created)
			sort.SliceStable(want, func(a, b int) bool { return want[a].policy.Priority < want[b].policy.Priority })
			if !slices.Equal(order, want) {
				t.Fatalf("seed %d after %d tenants: order %s, want %s", seed, i+1, ids(order), ids(want))
			}
		}
	}
}

// TestShardRunsSubmitBeforeNextMessage calls shard.handle directly, with
// no loop goroutine, so nothing but the message order decides what a
// status or cancel sees. On a running server an accepted submit has run
// to a terminal state before the shard takes its next message; on a
// paused server it stays queued, so a cancel finds it there. A submit
// that reaches a running server before the resume has run its tenant's
// backlog runs after that backlog.
func TestShardRunsSubmitBeforeNextMessage(t *testing.T) {
	rec := &obs.Recorder{}
	srv := &Server{cfg: DefaultConfig(), rng: sim.NewRNG(1)}
	srv.cfg.Sink = rec
	srv.policies = tierPolicies(&srv.cfg)
	sh := newShard(0, srv)
	call := func(req Request) Response {
		t.Helper()
		m := opMsg{kind: ctlRequest, req: req, reply: make(chan shardReply, 1)}
		sh.handle(m)
		return (<-m.reply).resp
	}

	mustOK(t, call(Request{Op: OpSubmit, Tenant: "ann", Task: spec("t1", 1000)}))
	if resp := mustOK(t, call(Request{Op: OpStatus, Tenant: "ann", TaskID: "t1"})); resp.State != "done" {
		t.Errorf("running server: status = %q, want done", resp.State)
	}

	srv.paused.Store(true)
	mustOK(t, call(Request{Op: OpSubmit, Tenant: "ann", Task: spec("t2", 1000)}))
	if resp := mustOK(t, call(Request{Op: OpStatus, Tenant: "ann", TaskID: "t2"})); resp.State != "queued" {
		t.Errorf("paused server: status = %q, want queued", resp.State)
	}
	if resp := mustOK(t, call(Request{Op: OpCancel, Tenant: "ann", TaskID: "t2"})); resp.State != "canceled" {
		t.Errorf("paused server: cancel = %q, want canceled", resp.State)
	}
	mustOK(t, call(Request{Op: OpSubmit, Tenant: "ann", Task: spec("t3", 1000)}))

	srv.paused.Store(false)
	mustOK(t, call(Request{Op: OpSubmit, Tenant: "ann", Task: spec("t4", 1000)}))
	var done []string
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindComplete {
			done = append(done, ev.TaskID.String())
		}
	}
	if got := strings.Join(done, " "); got != "t1 t3 t4" {
		t.Errorf("completion order %q, want %q", got, "t1 t3 t4")
	}
	st := mustOK(t, call(Request{Op: OpStats, Tenant: "ann"})).Stats
	if st.Completed != 3 || st.Canceled != 1 || st.InFlight != 0 || !st.conserved() {
		t.Errorf("stats = %+v", st)
	}
}
