package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/variation"
)

// goldenDigest loads a committed fixture as the type the request kind
// returns and digests it the way inspect digests a reply.
func goldenDigest(kind, path string) ([32]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return [32]byte{}, err
	}
	var v any
	switch kind {
	case "solve":
		v = new(core.Result)
	case "sweep":
		v = new(sweep.Result)
	case "montecarlo":
		v = new(variation.MCResult)
	case "corners":
		v = new(variation.CornerReport)
	default:
		return [32]byte{}, fmt.Errorf("no golden form for %s replies", kind)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return [32]byte{}, fmt.Errorf("%s: %w", path, err)
	}
	if s, ok := v.(*sweep.Result); ok {
		v = stripSweep(s)
	}
	return digest(v), nil
}

// verify checks every outcome: a 2xx status, the golden fixture where
// the request names one, and equality with the first reply to the same
// request. It then recomputes up to `sample` distinct requests
// in-process (seeded choice) and requires equal outputs. It returns the
// first digest per request signature.
func verify(res *result, outs []*outcome, seed uint64, sample int) map[string][32]byte {
	goldens := map[string][32]byte{}
	first := map[string][32]byte{}
	var locals []*request
	for _, o := range outs {
		rq := o.req
		if o.err != nil {
			continue
		}
		if rq.golden != "" {
			want, ok := goldens[rq.golden]
			if !ok {
				d, err := goldenDigest(rq.kind, rq.golden)
				if err != nil {
					res.problem("golden %s: %v", rq.golden, err)
				}
				want, goldens[rq.golden] = d, d
			}
			if o.digest != want {
				o.err = fmt.Errorf("differs from %s", rq.golden)
				continue
			}
		}
		if want, ok := first[rq.sig]; !ok {
			first[rq.sig] = o.digest
			if rq.local != nil {
				locals = append(locals, rq)
			}
		} else if o.digest != want {
			o.err = fmt.Errorf("differs from the first reply to the same request")
		}
	}

	// Recompute a seeded sample in-process: farm ≡ local ≡ library.
	sort.Slice(locals, func(i, j int) bool { return locals[i].sig < locals[j].sig })
	rng := rand.New(rand.NewPCG(seed, 0x10ca1))
	rng.Shuffle(len(locals), func(i, j int) { locals[i], locals[j] = locals[j], locals[i] })
	bad := map[string]bool{}
	checked := 0
	for _, rq := range locals {
		if checked == sample {
			break
		}
		checked++
		v, err := rq.local()
		if err != nil {
			res.problem("in-process recompute of %s: %v", rq.sig, err)
			bad[rq.sig] = true
			continue
		}
		if digest(v) != first[rq.sig] {
			bad[rq.sig] = true
		}
	}
	res.info = append(res.info, fmt.Sprintf("verified %d replies: %d golden fixtures, %d distinct requests, %d recomputed in-process",
		len(outs), len(goldens), len(first), checked))
	for _, o := range outs {
		if o.err == nil && bad[o.req.sig] {
			o.err = fmt.Errorf("differs from its in-process recompute")
		}
	}
	for _, o := range outs {
		if o.err != nil {
			res.problem("%s (pass %d): %v", o.req.sig, o.pass, o.err)
			if len(res.problems) > 20 {
				break
			}
		}
	}
	return first
}
