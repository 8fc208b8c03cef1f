// Corner-enumeration sizing: one nominal solve plus one solve per
// process corner, each corner a constant-scaled variant of the same
// instance (rc.Perturb through the topo-scaling hook, so corners share
// the coupling CSR and level buckets and re-derive only per-node
// constants). Corners warm-start from the nominal solve exactly as sweep
// cells warm-start from their solved neighbour: the nominal sizes seed
// the primal half and the nominal DualState the dual half. Under
// ColdLRS+PrimalOnly a warm start carries no information the solver can
// use (S1 resets the sizes, the dual is withheld), so warm and cold
// corner enumerations are bit-identical there — the corner analogue of
// the sweep engine's independence predicate, pinned by
// TestCornerWarmMatchesCold.
package variation

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rc"
)

// Corner is one named process corner: R/C/threshold scalars on the
// nominal technology.
type Corner struct {
	Name      string  `json:"name"`
	R         float64 `json:"r"`
	C         float64 `json:"c"`
	Threshold float64 `json:"threshold"`
}

// Perturb returns the corner's technology perturbation.
func (c Corner) Perturb() rc.Perturb {
	return rc.Perturb{R: c.R, C: c.C, Threshold: c.Threshold}
}

// StandardCorners returns the usual five-corner enumeration: typical,
// fast, slow, and the two skewed corners (fast gates with slow
// interconnect and the reverse).
func StandardCorners() []Corner {
	return []Corner{
		{Name: "tt", R: 1, C: 1, Threshold: 1},
		{Name: "ff", R: 0.9, C: 0.9, Threshold: 0.85},
		{Name: "ss", R: 1.1, C: 1.1, Threshold: 1.15},
		{Name: "fs", R: 1.1, C: 1.05, Threshold: 0.9},
		{Name: "sf", R: 0.9, C: 0.95, Threshold: 1.1},
	}
}

// CornerOptions configures a corner enumeration. The zero value solves
// StandardCorners with derived bounds and solver defaults.
type CornerOptions struct {
	// Corners to enumerate; empty means StandardCorners().
	Corners []Corner
	// Bounds are the nominal base bounds; nil derives them from the
	// instance (bench.DeriveBounds). Every corner is solved against the
	// same targets — the corner moves the technology, not the spec — save
	// the constant-coupling-offset carry in the noise bound (see
	// perturbedBounds).
	Bounds *bench.Bounds
	// Solver knobs, normalized like core.Options.validate (zero keeps the
	// defaults).
	MaxIterations int
	Epsilon       float64
	Workers       int
	// Cold skips warm-starting corners from the nominal solve.
	Cold bool
	// PrimalOnly withholds the dual half of the warm start; ColdLRS
	// resets the sizes at every S1 (the paper-faithful inner loop). Under
	// both, warm ≡ cold bitwise.
	PrimalOnly bool
	ColdLRS    bool
	FullPasses bool
	// Cancel is polled at solver iteration boundaries (core.Options.Cancel).
	Cancel func() bool
	// OnCorner, when non-nil, observes each corner cell as it completes,
	// in corner order. Purely observational: results are bit-identical
	// with or without the hook.
	OnCorner func(*CornerCell)
}

// CornerCell is one solved corner.
type CornerCell struct {
	Corner Corner       `json:"corner"`
	Result *core.Result `json:"result"`
}

// CornerReport is the corner-enumeration outcome: the nominal solve, one
// cell per corner (in the requested order), and the cross-corner delay
// distribution of the solved designs.
type CornerReport struct {
	Nominal *core.Result `json:"nominal"`
	Cells   []CornerCell `json:"corners"`
	// Delay summarizes the per-corner achieved delays (DelayPs), nominal
	// excluded — the corner spread Table-1-style reporting quotes.
	Delay Dist `json:"delay"`
}

// solverOptions normalizes the shared solver knobs exactly as
// sweep.Options does, so a corner cell and a sweep cell with the same
// knobs run the same core configuration.
func solverOptions(b bench.Bounds, maxIter int, epsilon float64, workers int, coldLRS, fullPasses bool) core.Options {
	sopt := core.DefaultOptions(b.A0, b.NoiseBound, b.PowerBound)
	if maxIter > 0 {
		sopt.MaxIterations = maxIter
	}
	if epsilon > 0 {
		sopt.Epsilon = epsilon
	}
	sopt.WarmStart = !coldLRS
	sopt.Incremental = !fullPasses
	sopt.Workers = workers
	return sopt
}

// resolveBounds returns the explicit bounds or derives them.
func resolveBounds(inst *bench.Instance, b *bench.Bounds) bench.Bounds {
	if b != nil {
		return *b
	}
	return bench.DeriveBounds(inst)
}

// perturbedBounds carries the base bounds to a perturbed technology. The
// targets themselves do not move — a corner shifts the silicon, not the
// spec — with one necessary exception: the noise bound contains the
// constant coupling offset, the crosstalk floor no sizing can remove,
// and that floor scales with the capacitance perturbation. Keeping the
// raw bound fixed would make every slow-C variant infeasible by
// construction, so the bound carries the offset's delta and holds the
// removable noise budget (bound − offset) constant instead. Pure
// arithmetic in (bounds, offset, perturb): a local run and a farm shard
// compute the identical bound, preserving bit-identity.
func perturbedBounds(b bench.Bounds, offset float64, p rc.Perturb) bench.Bounds {
	b.NoiseBound += (p.C - 1) * offset
	return b
}

// constantOffset is the instance's unavoidable crosstalk floor.
func constantOffset(inst *bench.Instance) float64 {
	if cs := inst.Eval.Couplings(); cs != nil {
		return cs.ConstantOffset()
	}
	return 0
}

// CornerSweep solves the instance at the nominal technology and then at
// every corner. With warm starts (the default) each corner begins at the
// nominal sizes and multipliers; Cold solves every corner from scratch.
// Corners run sequentially in list order, so the report is deterministic
// in (instance, options) regardless of hooks or timing.
func CornerSweep(inst *bench.Instance, opt CornerOptions) (*CornerReport, error) {
	corners := opt.Corners
	if len(corners) == 0 {
		corners = StandardCorners()
	}
	for _, c := range corners {
		if err := c.Perturb().Validate(); err != nil {
			return nil, fmt.Errorf("variation: corner %q: %w", c.Name, err)
		}
	}
	bounds := resolveBounds(inst, opt.Bounds)
	offset := constantOffset(inst)
	sopt := solverOptions(bounds, opt.MaxIterations, opt.Epsilon, opt.Workers, opt.ColdLRS, opt.FullPasses)
	sopt.Cancel = opt.Cancel

	// Nominal solve: the warm-start anchor and the report's reference row.
	nomEv, err := inst.Replica()
	if err != nil {
		return nil, err
	}
	nomSolver, err := core.NewSolver(nomEv, sopt)
	if err != nil {
		return nil, err
	}
	nominal, err := nomSolver.Run()
	if err != nil {
		nomSolver.Close()
		return nil, err
	}
	var dual *core.DualState
	if !opt.Cold && !opt.PrimalOnly {
		dual = nomSolver.DualState()
	}
	nomSolver.Close()

	rep := &CornerReport{Nominal: nominal, Cells: make([]CornerCell, 0, len(corners))}
	delays := make([]float64, 0, len(corners))
	for _, c := range corners {
		ev, err := inst.PerturbedReplica(c.Perturb())
		if err != nil {
			return nil, fmt.Errorf("variation: corner %q: %w", c.Name, err)
		}
		copt := solverOptions(perturbedBounds(bounds, offset, c.Perturb()),
			opt.MaxIterations, opt.Epsilon, opt.Workers, opt.ColdLRS, opt.FullPasses)
		copt.Cancel = opt.Cancel
		solver, err := core.NewSolver(ev, copt)
		if err != nil {
			return nil, fmt.Errorf("variation: corner %q: %w", c.Name, err)
		}
		seed := inst.Eval.X
		var d *core.DualState
		if !opt.Cold {
			seed = nominal.X
			d = dual
		}
		res, err := solver.RunFromDual(seed, d)
		solver.Close()
		if err != nil {
			return nil, fmt.Errorf("variation: corner %q: %w", c.Name, err)
		}
		cell := CornerCell{Corner: c, Result: res}
		rep.Cells = append(rep.Cells, cell)
		delays = append(delays, res.DelayPs)
		if opt.OnCorner != nil {
			opt.OnCorner(&rep.Cells[len(rep.Cells)-1])
		}
	}
	rep.Delay = NewDist(delays)
	return rep, nil
}
