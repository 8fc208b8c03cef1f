package rc

import (
	"math"
	"testing"

	"repro/internal/circuit"
)

// TestPerturbValidate pins the perturbation guard: every scalar must be
// positive and finite, NaN included (NaN slides through `> 0`? no — the
// check is written `!(v > 0)`, which catches NaN too; this table proves
// it stays that way).
func TestPerturbValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Perturb
		ok   bool
	}{
		{"nominal", Nominal(), true},
		{"corner", Perturb{R: 1.1, C: 0.9, Threshold: 1.15}, true},
		{"zero R", Perturb{R: 0, C: 1, Threshold: 1}, false},
		{"negative C", Perturb{R: 1, C: -1, Threshold: 1}, false},
		{"NaN threshold", Perturb{R: 1, C: 1, Threshold: math.NaN()}, false},
		{"inf R", Perturb{R: math.Inf(1), C: 1, Threshold: 1}, false},
		{"negative inf C", Perturb{R: 1, C: math.Inf(-1), Threshold: 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("invalid perturbation accepted")
			}
		})
	}
	if !Nominal().IsNominal() {
		t.Error("Nominal() not IsNominal")
	}
	if (Perturb{R: 1, C: 1.0000001, Threshold: 1}).IsNominal() {
		t.Error("perturbed C reported nominal")
	}
}

// TestScaledReplicaNominalIsExact: a ×1.0 perturbation is the identity in
// floating point, so the nominal ScaledReplica must be bit-identical to a
// plain replica — and shares the base topology outright.
func TestScaledReplicaNominalIsExact(t *testing.T) {
	g := buildChain(t)
	cs := emptySet(t)
	base, err := NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	nom, err := base.ScaledReplica(Nominal())
	if err != nil {
		t.Fatal(err)
	}
	if nom.t != base.t {
		t.Error("nominal ScaledReplica rebuilt the topology instead of sharing it")
	}
	base.SetAllSizes(0.8)
	nom.SetAllSizes(0.8)
	base.RecomputeSerial()
	nom.RecomputeSerial()
	for i := 0; i < g.NumNodes(); i++ {
		if nom.A[i] != base.A[i] || nom.C[i] != base.C[i] || nom.D[i] != base.D[i] {
			t.Fatalf("node %d: nominal replica diverged from base", i)
		}
	}
	if _, err := base.ScaledReplica(Perturb{R: 0, C: 1, Threshold: 1}); err == nil {
		t.Error("ScaledReplica accepted a zero scalar")
	}
}

// TestScaledReplicaSharesStructure: a perturbed replica shares the
// structural arrays (level buckets, coupling CSR) with the base topology
// and re-derives only the constants — the memory contract that makes a
// Monte-Carlo sample cost constant stripes, not an elaboration.
func TestScaledReplicaSharesStructure(t *testing.T) {
	g := buildChain(t)
	cs := emptySet(t)
	base, err := NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := base.ScaledReplica(Perturb{R: 1.1, C: 0.9, Threshold: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if ev.t == base.t {
		t.Error("perturbed replica shared the base topology")
	}
	if &ev.t.lvlNodes[0] != &base.t.lvlNodes[0] {
		t.Error("perturbed topology copied the level buckets")
	}
	if &ev.X[0] == &base.X[0] {
		t.Error("perturbed replica shared the base sizes")
	}
	if _, err := base.ScaledReplica(Perturb{R: math.NaN(), C: 1, Threshold: 1}); err == nil {
		t.Error("ScaledReplica accepted a NaN scalar")
	}
}

// buildChain makes a minimal driver→wire→gate→wire(output) chain.
func buildChain(t *testing.T) *circuit.Graph {
	t.Helper()
	b := circuit.NewBuilder()
	d := b.AddDriver("d", 100)
	w1 := b.AddWire("w1", 10, 0.5, 0.1, 50, 1, 0.2, 3)
	gt := b.AddGate("g", 12, 0.4, 2, 0.3, 4)
	w2 := b.AddWire("w2", 8, 0.5, 0.1, 40, 1, 0.2, 3)
	b.Connect(d, w1)
	b.Connect(w1, gt)
	b.Connect(gt, w2)
	b.MarkOutput(w2, 15)
	g, _, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// requireSameDerived demands bitwise equality of every derived per-node
// array of e and ref.
func requireSameDerived(t *testing.T, e, ref *Evaluator, ctx string) {
	t.Helper()
	for i := range ref.X {
		if e.B[i] != ref.B[i] || e.C[i] != ref.C[i] || e.CPr[i] != ref.CPr[i] ||
			e.D[i] != ref.D[i] || e.A[i] != ref.A[i] ||
			e.Cap[i] != ref.Cap[i] || e.RPs[i] != ref.RPs[i] {
			t.Fatalf("%s node %d: (B=%.17g C=%.17g D=%.17g A=%.17g) != serial (B=%.17g C=%.17g D=%.17g A=%.17g)",
				ctx, i, e.B[i], e.C[i], e.D[i], e.A[i], ref.B[i], ref.C[i], ref.D[i], ref.A[i])
		}
		if e.CNbr != nil && e.CNbr[i] != ref.CNbr[i] {
			t.Fatalf("%s node %d: CNbr %.17g != %.17g", ctx, i, e.CNbr[i], ref.CNbr[i])
		}
	}
}

// FuzzVariation is the technology-perturbation adversary: for every DAG
// the bytes describe it draws K random perturbation scalar triples
// (nominal included) and, per perturbation, builds three ScaledReplicas
// with identical random sizes — one driven through the levelized passes
// under a hostile chunked Runner, one through the incremental refresh
// after random size mutations, and the serial reference — and demands
// exact bitwise equality of every derived array and of the upstream
// resistances. Every Monte-Carlo sample and process corner solves on
// such a replica, so this is the foundation of their determinism.
func FuzzVariation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 121, 98})
	f.Add([]byte("perturbed replicas must match scaled solos bit for bit"))
	f.Add([]byte{0, 128, 0, 128, 0, 128, 0, 128, 0, 128, 0, 128, 0, 128})
	f.Add([]byte{42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, cs := dagFromBytes(t, data)
		if g == nil {
			return
		}
		base, err := NewEvaluator(g, cs)
		if err != nil {
			t.Fatal(err)
		}
		nn := g.NumNodes()
		var sizable []int
		for i := 0; i < nn; i++ {
			if g.Comp(i).Kind.Sizable() {
				sizable = append(sizable, i)
			}
		}
		feed := &byteFeed{data: data}
		k := 1 + feed.next()%4
		for r := 0; r < k; r++ {
			p := Nominal() // exercise the shared-base-topo path
			if feed.next()%4 != 0 {
				// Scalars in [0.5, 1.49] — the corner/Monte-Carlo regime.
				p = Perturb{
					R:         0.5 + float64(feed.next()%100)/100,
					C:         0.5 + float64(feed.next()%100)/100,
					Threshold: 0.5 + float64(feed.next()%100)/100,
				}
			}
			var evs [3]*Evaluator // levelized, incremental, serial reference
			for n := range evs {
				if evs[n], err = base.ScaledReplica(p); err != nil {
					t.Fatal(err) // generator only couples wires, so this must build
				}
			}
			lv, inc, ref := evs[0], evs[1], evs[2]
			for _, i := range sizable {
				c := g.Comp(i)
				v := c.Lo + float64(feed.next()%32)/31*(c.Hi-c.Lo)
				lv.X[i], inc.X[i], ref.X[i] = v, v, v
			}
			lambda := make([]float64, nn)
			for i := range lambda {
				lambda[i] = float64((i*3+r*7+len(data))%13) / 5
			}
			rupLv := make([]float64, nn)
			rupInc := make([]float64, nn)
			rupRef := make([]float64, nn)
			check := func(ctx string) {
				t.Helper()
				requireSameDerived(t, lv, ref, ctx+" levelized")
				requireSameDerived(t, inc, ref, ctx+" incremental")
				for i := range rupRef {
					if rupLv[i] != rupRef[i] || rupInc[i] != rupRef[i] {
						t.Fatalf("%s replica %d (p=%+v) node %d: R (levelized %.17g, incremental %.17g) != serial %.17g",
							ctx, r, p, i, rupLv[i], rupInc[i], rupRef[i])
					}
				}
			}
			lv.SetRunner(chunkedRunner(1 + feed.next()%5))
			lv.Recompute()
			lv.UpstreamResistance(lambda, rupLv)
			inc.Recompute()
			inc.UpstreamResistance(lambda, rupInc)
			ref.RecomputeSerial()
			ref.UpstreamResistanceSerial(lambda, rupRef)
			check("full")
			if len(sizable) == 0 {
				continue
			}
			nMut := feed.next() % 6 // 0 → empty dirty set
			for m := 0; m < nMut; m++ {
				i := sizable[feed.next()%len(sizable)]
				c := g.Comp(i)
				v := c.Lo + float64(feed.next()%32)/31*(c.Hi-c.Lo)
				lv.X[i], ref.X[i] = v, v
				if _, err := inc.SetSize(i, v); err != nil {
					t.Fatal(err)
				}
			}
			lv.Recompute()
			lv.UpstreamResistance(lambda, rupLv)
			inc.RecomputeIncremental()
			inc.UpstreamResistanceIncremental(lambda, rupInc)
			ref.RecomputeSerial()
			ref.UpstreamResistanceSerial(lambda, rupRef)
			check("mutated")
		}
	})
}
