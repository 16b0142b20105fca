package core

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestVirtualSizeBasics(t *testing.T) {
	cases := []struct {
		name      string
		remaining int
		beta      float64
		alpha     float64
		want      float64
	}{
		{"zero remaining", 0, 1.5, 1, 0},
		{"negative remaining", -3, 1.5, 1, 0},
		{"beta 1.5 alpha 1", 30, 1.5, 1, 40},
		{"beta 2 alpha 1", 30, 2, 1, 30},
		{"alpha quadruples -> doubles", 30, 2, 4, 60},
		{"alpha zero treated as one", 30, 2, 0, 30},
		{"beta below clamp", 10, 0.5, 1, 2 / 1.05 * 10},
		{"beta above clamp", 10, 5, 1, 10},
	}
	for _, c := range cases {
		if got := VirtualSize(c.remaining, c.beta, c.alpha); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: VirtualSize(%d, %v, %v) = %v, want %v",
				c.name, c.remaining, c.beta, c.alpha, got, c.want)
		}
	}
}

func TestVirtualSizeAtLeastRemainingForAlphaGE1(t *testing.T) {
	// With alpha >= 1 and beta <= 2, the virtual size is never below the
	// remaining task count: the speculation headroom is nonnegative.
	for rem := 1; rem < 200; rem += 7 {
		for _, beta := range []float64{1.1, 1.4, 1.6, 2.0} {
			if v := VirtualSize(rem, beta, 1); v < float64(rem)-1e-9 {
				t.Fatalf("VirtualSize(%d, %v, 1) = %v < remaining", rem, beta, v)
			}
		}
	}
}

func TestPriorityUsesDownstream(t *testing.T) {
	j := JobDemand{Remaining: 10, Alpha: 1, DownstreamVirtual: 100}
	if got := j.Priority(1.5); got != 100 {
		t.Fatalf("Priority = %v, want downstream 100", got)
	}
	j.DownstreamVirtual = 0
	if got, want := j.Priority(1.5), VirtualSize(10, 1.5, 1); got != want {
		t.Fatalf("Priority = %v, want V = %v", got, want)
	}
}

func TestAllocateConstrainedServesSmallestFirst(t *testing.T) {
	jobs := []JobDemand{
		{ID: 1, Remaining: 100},
		{ID: 2, Remaining: 10},
		{ID: 3, Remaining: 50},
	}
	beta := 1.5 // V = 4/3 T: totals 160*4/3 > 60
	alloc := Allocate(jobs, 60, beta)
	// Smallest job (10 tasks, V=ceil(13.3)=14) gets its full virtual size.
	if alloc[1] != 14 {
		t.Errorf("smallest job alloc = %d, want 14", alloc[1])
	}
	// Next smallest (50 tasks, V=ceil(66.7)) gets the remainder (46).
	if alloc[2] != 46 {
		t.Errorf("middle job alloc = %d, want 46", alloc[2])
	}
	if alloc[0] != 0 {
		t.Errorf("largest job alloc = %d, want 0", alloc[0])
	}
}

func TestAllocateUnconstrainedProportional(t *testing.T) {
	jobs := []JobDemand{
		{ID: 1, Remaining: 10},
		{ID: 2, Remaining: 30},
	}
	beta := 2.0 // V = T; total V = 40 << 400
	alloc := Allocate(jobs, 400, beta)
	if alloc[0]+alloc[1] != 400 {
		t.Fatalf("unconstrained allocation must be work-conserving: got %d", alloc[0]+alloc[1])
	}
	// Proportional: 100 and 300.
	if alloc[0] != 100 || alloc[1] != 300 {
		t.Fatalf("alloc = %v, want [100 300]", alloc)
	}
}

func TestAllocateRespectsMaxUsable(t *testing.T) {
	jobs := []JobDemand{
		{ID: 1, Remaining: 10, MaxUsable: 12},
		{ID: 2, Remaining: 30, MaxUsable: 60},
	}
	alloc := Allocate(jobs, 400, 2.0)
	if alloc[0] > 12 || alloc[1] > 60 {
		t.Fatalf("allocation exceeds caps: %v", alloc)
	}
	if alloc[0]+alloc[1] != 72 {
		t.Fatalf("should saturate caps: %v", alloc)
	}
}

func TestAllocateEmptyAndZeroSlots(t *testing.T) {
	if got := Allocate(nil, 100, 1.5); len(got) != 0 {
		t.Fatalf("nil jobs: %v", got)
	}
	jobs := []JobDemand{{ID: 1, Remaining: 5}}
	if got := Allocate(jobs, 0, 1.5); got[0] != 0 {
		t.Fatalf("zero slots: %v", got)
	}
}

func TestAllocateNeverExceedsSlots(t *testing.T) {
	// Property: sum(alloc) <= slots for arbitrary inputs.
	f := func(sizes []uint16, slots uint16, betaRaw uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 60 {
			sizes = sizes[:60]
		}
		jobs := make([]JobDemand, len(sizes))
		for i, s := range sizes {
			jobs[i] = JobDemand{ID: int64(i), Remaining: int(s % 1000)}
		}
		beta := 1.05 + float64(betaRaw%95)/100.0
		alloc := Allocate(jobs, int(slots), beta)
		sum := 0
		for i, a := range alloc {
			if a < 0 {
				t.Logf("negative allocation for job %d", i)
				return false
			}
			sum += a
		}
		return sum <= int(slots)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateFairFloor(t *testing.T) {
	// One huge job and several small ones under scarcity: without
	// fairness the big job would starve; with epsilon = 0.2 it must get
	// at least (1-0.2) * S/N.
	jobs := []JobDemand{
		{ID: 1, Remaining: 1000},
		{ID: 2, Remaining: 10},
		{ID: 3, Remaining: 12},
		{ID: 4, Remaining: 14},
	}
	slots := 100
	eps := 0.2
	alloc := AllocateFair(jobs, slots, 1.5, eps)
	floor := int((1 - eps) * float64(slots) / float64(len(jobs)))
	if alloc[0] < floor {
		t.Fatalf("large job got %d, below fairness floor %d (alloc %v)", alloc[0], floor, alloc)
	}
	total := 0
	for _, a := range alloc {
		total += a
	}
	if total > slots {
		t.Fatalf("fair allocation oversubscribes: %v", alloc)
	}
}

func TestAllocateFairEpsilonOneIsUnfair(t *testing.T) {
	jobs := []JobDemand{
		{ID: 1, Remaining: 1000},
		{ID: 2, Remaining: 10},
	}
	got := AllocateFair(jobs, 50, 1.5, 1)
	want := Allocate(jobs, 50, 1.5)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("epsilon=1 should equal raw allocation: got %v want %v", got, want)
		}
	}
}

func TestAllocateFairPropertyFloorAndCapacity(t *testing.T) {
	f := func(sizes []uint16, slotsRaw uint16, epsRaw uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 40 {
			sizes = sizes[:40]
		}
		slots := int(slotsRaw%2000) + 1
		eps := float64(epsRaw%100) / 100
		jobs := make([]JobDemand, len(sizes))
		for i, s := range sizes {
			jobs[i] = JobDemand{ID: int64(i), Remaining: int(s%500) + 1}
		}
		alloc := AllocateFair(jobs, slots, 1.5, eps)
		sum := 0
		floor := int(math.Floor((1 - eps) * float64(slots) / float64(len(jobs))))
		for _, a := range alloc {
			// No job is capped, so every job gets at least the floor: the
			// floors of N jobs never add up to more than S.
			if a < floor {
				return false
			}
			sum += a
		}
		return sum <= slots
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestConstrainedRegimeDetection(t *testing.T) {
	jobs := []JobDemand{{ID: 1, Remaining: 30}} // V = 40 at beta 1.5
	if !Constrained(jobs, 39, 1.5) {
		t.Fatal("39 slots should be constrained")
	}
	if Constrained(jobs, 41, 1.5) {
		t.Fatal("41 slots should be unconstrained")
	}
}

func TestLocalityWindow(t *testing.T) {
	cases := []struct {
		n    int
		k    float64
		want int
	}{
		{0, 3, 0},
		{10, 0, 1},
		{10, -1, 1},
		{100, 3, 3},
		{10, 3, 1},
		{10, 100, 10},
		{3, 200, 3},
	}
	for _, c := range cases {
		if got := LocalityWindow(c.n, c.k); got != c.want {
			t.Errorf("LocalityWindow(%d, %v) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestAllocateDeterministic(t *testing.T) {
	jobs := []JobDemand{
		{ID: 1, Remaining: 50}, {ID: 2, Remaining: 50}, {ID: 3, Remaining: 50},
	}
	a := Allocate(jobs, 100, 1.5)
	for i := 0; i < 10; i++ {
		b := Allocate(jobs, 100, 1.5)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("allocation not deterministic: %v vs %v", a, b)
			}
		}
	}
}

// TestTypedSortsMatchStableSort: the allocator sorts (key, index) pairs
// with an unstable typed sort; because that order is total, it must be
// the permutation sort.SliceStable produced on the key alone, however
// many keys are equal. The largest-remainder step selects instead of
// sorting: among the jobs whose cap admits one more slot, the k it picks
// must be the first k of those in the stable sort by descending
// remainder, for every k, also when the selection runs out of
// partitioning rounds and sorts the rest.
func TestTypedSortsMatchStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		beta := 1.1 + rng.Float64()*0.9
		jobs := make([]JobDemand, n)
		for i := range jobs {
			// Five remaining-task counts and three alphas: ties everywhere.
			jobs[i] = JobDemand{Remaining: rng.Intn(5), Alpha: []float64{0, 1, 4}[rng.Intn(3)]}
			if rng.Intn(5) == 0 {
				jobs[i].DownstreamVirtual = float64(rng.Intn(4))
			}
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool {
			return jobs[want[a]].Priority(beta) < jobs[want[b]].Priority(beta)
		})
		var a Allocator
		a.sortByPriority(jobs, beta, nil)
		for k, o := range a.order {
			if o.idx != want[k] {
				t.Fatalf("trial %d: priority order differs from the stable sort at rank %d: job %d, want %d", trial, k, o.idx, want[k])
			}
		}

		// Remainders in quarters and caps of 0 (none) to 3 with wholes of
		// 0 to 3: ties everywhere, and a job at its cap is not eligible.
		var all, eligible []keyed
		isEligible := make([]bool, n)
		for i := range n {
			j := JobDemand{MaxUsable: rng.Intn(4)}
			whole := j.cap(rng.Intn(4))
			f := keyed{-float64(rng.Intn(4)) / 4, i} // whole − share, as allocProportional keys them
			all = append(all, f)
			if j.cap(whole+1) > whole {
				isEligible[i] = true
				eligible = append(eligible, f)
			}
		}
		sort.SliceStable(all, func(a, b int) bool { return -all[a].key > -all[b].key })
		rank := make([]int, n) // position among the eligible in the stable sort
		r := 0
		for _, f := range all {
			if isEligible[f.idx] {
				rank[f.idx] = r
				r++
			}
		}
		m := len(eligible)
		for k := 1; k < m; k++ {
			for _, rounds := range []int{0, 1, 3, 2 * bits.Len(uint(m))} {
				got := slices.Clone(eligible)
				selectSmallest(got, k, rounds)
				for _, f := range got[:k] {
					if rank[f.idx] >= k {
						t.Fatalf("trial %d: selecting %d of %d (%d rounds) picked job %d, ranked %d", trial, k, m, rounds, f.idx, rank[f.idx])
					}
				}
			}
		}

		// The whole step against the sort-and-scan it replaced, for every
		// surplus from none to more than the eligible jobs can take: a
		// few virtual sizes (equal remainders) and caps of 0 (none) to 5.
		m = 1 + rng.Intn(60)
		sub, virt := make([]JobDemand, m), make([]float64, m)
		totalV := 0.0
		for i := range sub {
			sub[i] = JobDemand{MaxUsable: rng.Intn(6)}
			virt[i] = float64(1+rng.Intn(4)) * 0.7
			totalV += virt[i]
		}
		order := make([]keyed, m)
		for i, v := range virt {
			order[i] = keyed{v, i}
		}
		slices.SortFunc(order, ascending)
		for slots := int(totalV); slots <= int(totalV)+m+2; slots++ {
			got := make([]int, m)
			a.allocProportional(sub, virt, order, totalV, slots, got)
			if want := proportionalBySort(sub, virt, order, totalV, slots); !slices.Equal(got, want) {
				t.Fatalf("trial %d, %d slots: largest remainder by selection %v, by sort %v", trial, slots, got, want)
			}
		}
	}
}

// proportionalBySort is allocProportional as it was before the
// selection: every job's remainder sorted descending, ties in input
// order, then scanned for the first left jobs whose cap admits one more.
func proportionalBySort(jobs []JobDemand, virt []float64, order []keyed, totalV float64, slots int) []int {
	alloc := make([]int, len(jobs))
	fracs := make([]keyed, len(jobs))
	used := 0
	for i, j := range jobs {
		share := virt[i] / totalV * float64(slots)
		alloc[i] = j.cap(int(math.Floor(share)))
		used += alloc[i]
		fracs[i] = keyed{share - float64(alloc[i]), i}
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].key > fracs[b].key })
	left := slots - used
	for _, f := range fracs {
		if left > 0 && jobs[f.idx].cap(alloc[f.idx]+1) > alloc[f.idx] {
			alloc[f.idx]++
			left--
		}
	}
	for k := len(order) - 1; k >= 0 && left > 0; k-- {
		i := order[k].idx
		extra := jobs[i].cap(alloc[i]+left) - alloc[i]
		alloc[i] += extra
		left -= extra
	}
	return alloc
}

// TestAllocatorMatchesFreshAllocation: one Allocator reused across a
// sequence of demand sets whose size grows and shrinks must allocate
// exactly what a fresh AllocateFair does on each set, and its Order must
// be the stable sort by JobDemand.Priority. Leftovers of a larger earlier
// call in the reused buffers, or a projection round that reads the
// call's one sort without remapping it to the round's subproblem, show
// up as a differing allocation. The generator covers both regimes of
// Pseudocode 1, projections of several rounds, floors that take the
// whole cluster (ε = 0 with S a multiple of N), MaxUsable caps and
// ε ∈ {0, 0.1, 1}; the coverage counts at the end fail if it stops doing
// so.
//
// A second reused Allocator is fed hints the way HopperEngine.refresh
// builds them: the set evolves from call to call (jobs finish, remaining
// counts change, jobs arrive, β drifts and now and then jumps, which
// reorders the jobs whose V′ dominates against the rest), and the hint is
// the previous call's Order over the survivors followed by the arrivals.
// Now and then the hint is reversed, which forces the full-sort fallback.
// Its allocation, Order and Priorities must be the unhinted call's.
func TestAllocatorMatchesFreshAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var a, ha Allocator
	var constrained, proportional, multiRound, floorsTakeAll, capped, repaired, fellBack int
	spread, beta := 40, 1.5
	newJob := func(id int) JobDemand {
		j := JobDemand{ID: int64(id), Remaining: rng.Intn(spread), Alpha: []float64{0, 1, 2.5}[rng.Intn(3)]}
		if rng.Intn(5) == 0 {
			j.DownstreamVirtual = float64(rng.Intn(2 * spread))
		}
		switch rng.Intn(3) {
		case 0:
			j.MaxUsable = j.Remaining * (1 + rng.Intn(4))
		case 1:
			j.MaxUsable = rng.Intn(5)
		}
		return j
	}
	var jobs []JobDemand
	var hint []int
	for trial := 0; trial < 3000; trial++ {
		// The next demand set. Usually the last one evolved: each job
		// finishes with probability 1/15 (order-preserving removal, as
		// the chassis removes jobs), about one in eight of the rest
		// finishes a few tasks and one in fifty starts a phase of any
		// size, and up to 20 jobs arrive at the end. Now and
		// then a new set of a random size replaces it, with a new spread
		// (small spreads tie priorities). The hint is built alongside.
		prev := ha.Order()
		hint = hint[:0]
		if trial == 0 || rng.Intn(20) == 0 {
			spread = []int{3, 40, 400}[rng.Intn(3)]
			jobs = jobs[:0]
		} else {
			renum := make([]int, len(jobs)) // each job's index in the next set, −1 once finished
			kept := jobs[:0]
			for i, j := range jobs {
				if rng.Intn(15) == 0 || len(jobs) > 300 && rng.Intn(2) == 0 {
					renum[i] = -1
					continue
				}
				switch rng.Intn(50) {
				case 0: // a new phase: any remaining count
					j = newJob(int(j.ID))
				case 1, 2, 3, 4, 5, 6:
					j.Remaining = max(0, j.Remaining-1-rng.Intn(3))
				}
				renum[i] = len(kept)
				kept = append(kept, j)
			}
			jobs = kept
			for _, i := range prev {
				if renum[i] >= 0 {
					hint = append(hint, renum[i])
				}
			}
		}
		arrivals := rng.Intn(21)
		if len(jobs) == 0 {
			arrivals = rng.Intn(301)
		}
		for range arrivals {
			hint = append(hint, len(jobs))
			jobs = append(jobs, newJob(trial*1000+len(jobs)))
		}
		n := len(jobs)
		if rng.Intn(10) == 0 {
			beta = 1.1 + rng.Float64()*0.9
		} else {
			beta = max(1.1, min(2, beta+(rng.Float64()-0.5)*0.02))
		}
		reversed := rng.Intn(10) == 0
		if reversed {
			slices.Reverse(hint)
		}
		totalV := TotalVirtual(jobs, beta)
		slots := int(totalV * []float64{0.05, 0.5, 0.95, 1.05, 2, 6}[rng.Intn(6)])
		eps := []float64{0, 0.1, 1}[rng.Intn(3)]
		if n > 0 && rng.Intn(8) == 0 {
			eps, slots = 0, n*(1+rng.Intn(3)) // every floor is ⌊S/N⌋ exactly
		}

		got := a.Allocate(jobs, slots, beta, eps, nil)
		want := AllocateFair(jobs, slots, beta, eps)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, slots=%d, ε=%v): reused allocator %v, fresh %v", trial, n, slots, eps, got, want)
		}
		fallbacks := ha.Fallbacks
		if hgot := ha.Allocate(jobs, slots, beta, eps, hint); !slices.Equal(hgot, want) {
			t.Fatalf("trial %d (n=%d, slots=%d, ε=%v): hinted allocator %v, fresh %v", trial, n, slots, eps, hgot, want)
		}
		if !slices.Equal(ha.Order(), a.Order()) || !slices.Equal(ha.Priorities(), a.Priorities()) {
			t.Fatalf("trial %d: hinted Order %v and Priorities %v, unhinted %v and %v",
				trial, ha.Order(), ha.Priorities(), a.Order(), a.Priorities())
		}
		if ha.Fallbacks > fallbacks {
			fellBack++
		} else if !reversed && n > 1 {
			repaired++
		}
		if ref := sortEachRound(jobs, slots, beta, eps); !slices.Equal(got, ref) {
			t.Fatalf("trial %d (n=%d, slots=%d, ε=%v): allocator %v, sorting each round %v", trial, n, slots, eps, got, ref)
		}
		sum := 0
		for i, x := range got {
			sum += x
			if x > jobs[i].cap(x) {
				t.Fatalf("trial %d: job %d given %d slots over its cap %d", trial, i, x, jobs[i].MaxUsable)
			}
		}
		if sum > max(slots, 0) {
			t.Fatalf("trial %d: allocated %d of %d slots", trial, sum, slots)
		}
		wantOrder := make([]int, n)
		for i := range wantOrder {
			wantOrder[i] = i
		}
		slices.SortStableFunc(wantOrder, func(x, y int) int {
			return cmpFloat(jobs[x].Priority(beta), jobs[y].Priority(beta))
		})
		if !slices.Equal(a.Order(), wantOrder) {
			t.Fatalf("trial %d: Order %v, stable sort by priority %v", trial, a.Order(), wantOrder)
		}
		for i, p := range a.Priorities() {
			if p != jobs[i].Priority(beta) {
				t.Fatalf("trial %d: Priorities()[%d] = %v, want %v", trial, i, p, jobs[i].Priority(beta))
			}
		}

		if n == 0 || slots <= 0 {
			continue
		}
		if float64(slots) < totalV {
			constrained++
		} else {
			proportional++
		}
		for _, j := range jobs {
			if j.MaxUsable > 0 && j.cap(slots) < slots {
				capped++
				break
			}
		}
		if eps < 1 {
			// A second round runs when the unprojected allocation leaves a
			// job below its guarantee.
			floor := int(math.Floor((1 - eps) * float64(slots) / float64(n)))
			for i, x := range Allocate(jobs, slots, beta) {
				if x < jobs[i].cap(floor) {
					multiRound++
					break
				}
			}
			if floor*n == slots && sum == slots {
				floorsTakeAll++
			}
		}
	}
	t.Logf("constrained %d, proportional %d, multi-round %d, floors take all %d, capped %d, hint repaired %d, fell back %d",
		constrained, proportional, multiRound, floorsTakeAll, capped, repaired, fellBack)
	if ha.Hinted != 3000 || ha.Calls != 3000 {
		t.Errorf("the hinted allocator counted %d hinted of %d calls, want 3000 of 3000", ha.Hinted, ha.Calls)
	}
	for name, c := range map[string]int{"constrained": constrained, "proportional": proportional,
		"multi-round": multiRound, "floors-take-all": floorsTakeAll, "capped": capped,
		"hint-repaired": repaired, "fallback": fellBack} {
		if c < 50 {
			t.Errorf("only %d %s cases: the generator no longer covers them", c, name)
		}
	}
}

// sortEachRound is the ε-fairness projection with every round's
// subproblem allocated by a fresh Allocate, which sorts it anew: the
// oracle for the allocator's one sort, filtered and remapped per round.
func sortEachRound(jobs []JobDemand, slots int, beta, eps float64) []int {
	alloc := make([]int, len(jobs))
	if len(jobs) == 0 || slots <= 0 {
		return alloc
	}
	if eps >= 1 {
		return Allocate(jobs, slots, beta)
	}
	floor := (1 - eps) * float64(slots) / float64(len(jobs))
	var active []int
	for i := range jobs {
		active = append(active, i)
	}
	for slotsLeft := slots; len(active) > 0; {
		var sub []JobDemand
		for _, i := range active {
			sub = append(sub, jobs[i])
		}
		subAlloc := Allocate(sub, slotsLeft, beta)
		var kept []int
		for k, i := range active {
			if g := jobs[i].cap(int(math.Floor(floor))); subAlloc[k] < g {
				alloc[i] = g
				slotsLeft -= g
			} else {
				kept = append(kept, i)
			}
		}
		if len(kept) == len(active) {
			for k, i := range active {
				alloc[i] = subAlloc[k]
			}
			break
		}
		active = kept
	}
	return alloc
}

func cmpFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// TestAllocatorRejectsBadHint: a hint that is not a permutation of the
// input indices panics, whether the insertion sort finishes it or falls
// back to the full sort, and whether or not the repeated jobs tie.
func TestAllocatorRejectsBadHint(t *testing.T) {
	identity := func(n int) []int {
		h := make([]int, n)
		for i := range h {
			h[i] = i
		}
		return h
	}
	reversedWithRepeat := identity(64)
	slices.Reverse(reversedWithRepeat)
	reversedWithRepeat[60] = reversedWithRepeat[3]
	cases := []struct {
		name string
		n    int
		hint []int
	}{
		{"repeated", 5, []int{0, 1, 2, 2, 4}},
		{"repeated far apart", 5, []int{3, 1, 2, 0, 3}},
		{"repeated in a reversed hint", 64, reversedWithRepeat},
		{"out of range", 5, []int{0, 1, 2, 3, 5}},
		{"negative", 5, []int{0, -1, 2, 3, 4}},
		{"short", 5, []int{0, 1, 2, 3}},
		{"long", 5, []int{0, 1, 2, 3, 4, 0}},
		{"empty for one job", 1, []int{}},
	}
	for _, c := range cases {
		for _, tied := range []bool{false, true} {
			jobs := make([]JobDemand, c.n)
			for i := range jobs {
				jobs[i] = JobDemand{Remaining: 10 + 7*i%13}
				if tied {
					jobs[i].Remaining = 10
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s (tied %v): hint %v for %d jobs did not panic", c.name, tied, c.hint, c.n)
					}
				}()
				var a Allocator
				a.Allocate(jobs, 100, 1.5, 0.1, c.hint)
			}()
		}
	}
	var a Allocator
	a.Allocate(make([]JobDemand, 64), 100, 1.5, 0.1, identity(64)) // a permutation does not panic
}

// TestAllocatorAllocatesNothingWarm: once its buffers have grown to the
// job count, an Allocator's call costs no heap, projection rounds
// included, with or without a hint, and when the hint is poor enough to
// fall back to the full sort.
func TestAllocatorAllocatesNothingWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	jobs := make([]JobDemand, 150)
	for i := range jobs {
		r := 1 + rng.Intn(200)
		jobs[i] = JobDemand{ID: int64(i), Remaining: r, MaxUsable: 2 * r}
	}
	for _, slots := range []int{500, 16000, 100000} { // constrained, projected, proportional
		var a Allocator
		a.Allocate(jobs, slots, 1.5, 0.1, nil)
		hint := slices.Clone(a.Order())
		reversed := slices.Clone(hint)
		slices.Reverse(reversed)
		for _, h := range []struct {
			name string
			hint []int
		}{{"no hint", nil}, {"hint", hint}, {"reversed hint", reversed}} {
			if got := testing.AllocsPerRun(50, func() {
				a.Allocate(jobs, slots, 1.5, 0.1, h.hint)
				a.Order()
			}); got != 0 {
				t.Errorf("%d slots, %s: %v allocations per warm call, want 0", slots, h.name, got)
			}
		}
		if a.Hinted != 102 || a.Fallbacks != 51 {
			t.Errorf("%d slots: %d hinted calls and %d fallbacks, want 102 and 51", slots, a.Hinted, a.Fallbacks)
		}
	}
}
