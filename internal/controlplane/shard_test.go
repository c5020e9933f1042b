package controlplane

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// engineOf is a bare engine carrying what dispatch order reads.
func engineOf(id string, tier Tier) *tenantEngine {
	return &tenantEngine{id: id, tier: tier, policy: tier.Policy()}
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
	tiers := Tiers()
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
