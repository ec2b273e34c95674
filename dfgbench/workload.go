package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"dfg/internal/bccompile"
	"dfg/internal/bytecode"
	"dfg/internal/lang/ast"
	"dfg/internal/pipeline"
	"dfg/internal/workload"
)

// request is one generated HTTP request: the body the deployment receives
// plus what the benchmark needs to check and replay the answer.
type request struct {
	Family string              // generator family, e.g. "mixed"
	Seed   int64               // generator seed
	Kind   pipeline.SourceKind // "" (source) or "bytecode"
	Source string              // program text exactly as sent
	Key    string              // expected report key (pipeline.ReportKey)
	Body   []byte              // POST /analyze body
}

// plan is one workload's generated traffic. Prefill and Warmup run during
// set-up; Timed is consumed in order by the closed-loop clients during the
// timed window (entries may repeat for the warm workloads).
type plan struct {
	Name    string
	Clients int
	Reports int // dfg-worker -reports; 0 keeps the worker default
	Prefill []*request
	Warmup  []*request
	Timed   []*request
	// Compute lists, in request order, the programs the deployment computes
	// (prefill plus never-seen timed programs): the traced run replays a
	// fixed prefix of it through the analysis stages.
	Compute []*request
}

var workloadNames = []string{"cold-mixed", "warm-zipf", "store-churn"}

// family is one program generator of the cold mix.
type family struct {
	name   string
	weight int // programs per block of 20
	gen    func(seed int64) *ast.Program
}

// coldFamilies is cold-mixed's mix: 75% Mixed(15), 10% LoopNest(6,4),
// 10% Irreducible(40), 5% Wide(300), in blocks of 20.
var coldFamilies = []family{
	{"mixed", 15, func(s int64) *ast.Program { return workload.Mixed(15, s) }},
	{"loopnest", 2, func(s int64) *ast.Program { return workload.LoopNest(6, 4, s) }},
	{"irreducible", 2, func(s int64) *ast.Program { return workload.Irreducible(40, s) }},
	{"wide", 1, func(s int64) *ast.Program { return workload.Wide(300, s) }},
}

const (
	coldBlock     = 20  // cold-mixed draws families in shuffled blocks of 20
	bytecodeEvery = 5   // one program in five of each family is sent as bytecode
	warmPrograms  = 200 // warm-zipf's prefilled working set
	zipfS         = 1.1 // warm-zipf's Zipf exponent
	churnPrograms = 300 // store-churn's prefilled working set
	churnNewEvery = 10  // one store-churn request in ten is a new program
	churnReports  = 16  // store-churn's worker report LRU (-reports)
)

// generator draws distinct programs from one seeded stream.
type generator struct {
	rng    *rand.Rand
	seen   map[string]bool // sources already issued (the never-seen property)
	perFam map[string]int  // programs issued per family, for the bytecode share
	bcSlot map[string]int  // per-family offset of the bytecode slot
}

func newGenerator(seed int64, workloadName string, exclude map[string]bool) *generator {
	h := fnv.New64a()
	h.Write([]byte(workloadName))
	g := &generator{
		rng:    rand.New(rand.NewSource(seed ^ int64(h.Sum64()))),
		seen:   map[string]bool{},
		perFam: map[string]int{},
		bcSlot: map[string]int{},
	}
	for src := range exclude {
		g.seen[src] = true
	}
	return g
}

// draw returns a program of family f that has not been issued before. With
// bytecode set, one in bytecodeEvery programs of the family is compiled to
// bytecode and sent as assembly text.
func (g *generator) draw(f family, bytecodeShare bool) (*request, error) {
	slot, ok := g.bcSlot[f.name]
	if !ok {
		slot = g.rng.Intn(bytecodeEvery)
		g.bcSlot[f.name] = slot
	}
	asBytecode := bytecodeShare && g.perFam[f.name]%bytecodeEvery == slot
	for {
		seed := g.rng.Int63()
		prog := f.gen(seed)
		src := prog.String()
		if g.seen[src] {
			continue
		}
		g.seen[src] = true
		g.perFam[f.name]++
		r := &request{Family: f.name, Seed: seed, Source: src}
		if asBytecode {
			bp, err := bccompile.Compile(prog)
			if err != nil {
				return nil, fmt.Errorf("compile %s seed %d: %w", f.name, seed, err)
			}
			if r.Source, err = bytecode.Disassemble(bp); err != nil {
				return nil, fmt.Errorf("disassemble %s seed %d: %w", f.name, seed, err)
			}
			r.Kind = pipeline.KindBytecode
		}
		return r, finish(r)
	}
}

// finish fills in a request's body and expected key.
func finish(r *request) error {
	body := struct {
		Program    string `json:"program"`
		SourceKind string `json:"source_kind,omitempty"`
	}{r.Source, string(r.Kind)}
	var err error
	if r.Body, err = json.Marshal(body); err != nil {
		return err
	}
	r.Key, err = pipeline.ReportKey(r.Source, pipeline.Options{SourceKind: r.Kind}, nil)
	return err
}

// coldBlockOf draws one shuffled block of coldBlock programs in the
// cold-mixed proportions.
func (g *generator) coldBlockOf() ([]*request, error) {
	var fams []family
	for _, f := range coldFamilies {
		for i := 0; i < f.weight; i++ {
			fams = append(fams, f)
		}
	}
	g.rng.Shuffle(len(fams), func(i, j int) { fams[i], fams[j] = fams[j], fams[i] })
	out := make([]*request, 0, len(fams))
	for _, f := range fams {
		r, err := g.draw(f, true)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func (g *generator) mixed(n int) ([]*request, error) {
	out := make([]*request, 0, n)
	for i := 0; i < n; i++ {
		r, err := g.draw(coldFamilies[0], false)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// timedCap bounds how many timed requests are generated per second of the
// window: several times the rate the deployment sustains on a 2-core host,
// so the window never runs dry.
var timedCap = map[string]int{"cold-mixed": 500, "warm-zipf": 8000, "store-churn": 4000}

// buildPlan generates a workload's traffic from seed for a window of the
// given length. exclude holds program sources that must never be generated
// (the correctness gate's golden programs).
func buildPlan(name string, seed int64, seconds int, exclude map[string]bool) (*plan, error) {
	g := newGenerator(seed, name, exclude)
	n := seconds * timedCap[name]
	p := &plan{Name: name}
	var err error
	switch name {
	case "cold-mixed":
		p.Clients = 1
		if p.Warmup, err = g.coldBlockOf(); err != nil {
			return nil, err
		}
		for len(p.Timed) < n {
			b, err := g.coldBlockOf()
			if err != nil {
				return nil, err
			}
			p.Timed = append(p.Timed, b...)
		}
		p.Compute = p.Timed
	case "warm-zipf":
		p.Clients = 2
		if p.Prefill, err = g.mixed(warmPrograms); err != nil {
			return nil, err
		}
		// Rank r is drawn with probability proportional to (r+1)^-s; a
		// seeded permutation decides which program holds which rank.
		perm := g.rng.Perm(warmPrograms)
		z := rand.NewZipf(g.rng, zipfS, 1, warmPrograms-1)
		draw := func(k int) []*request {
			out := make([]*request, k)
			for i := range out {
				out[i] = p.Prefill[perm[z.Uint64()]]
			}
			return out
		}
		p.Warmup = draw(warmPrograms)
		p.Timed = draw(n)
		p.Compute = p.Prefill
	case "store-churn":
		p.Clients = 2
		p.Reports = churnReports
		if p.Prefill, err = g.mixed(churnPrograms); err != nil {
			return nil, err
		}
		for i := 0; i < churnPrograms/3; i++ {
			p.Warmup = append(p.Warmup, p.Prefill[g.rng.Intn(churnPrograms)])
		}
		p.Compute = append([]*request(nil), p.Prefill...)
		// Blocks of churnNewEvery: one never-seen program at a random
		// position, the rest uniform re-reads of the prefilled set.
		for len(p.Timed) < n {
			fresh := g.rng.Intn(churnNewEvery)
			for j := 0; j < churnNewEvery; j++ {
				if j == fresh {
					r, err := g.draw(coldFamilies[0], false)
					if err != nil {
						return nil, err
					}
					p.Timed = append(p.Timed, r)
					p.Compute = append(p.Compute, r)
					continue
				}
				p.Timed = append(p.Timed, p.Prefill[g.rng.Intn(churnPrograms)])
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return p, nil
}
