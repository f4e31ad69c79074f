package main

import (
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/scenario"
)

// recoveryScenarios are the crash storms the recovery workload runs:
// storm-mixed (four apps and a sharded kvservice, alternating strict and
// adversarial crashes with mid-batch aborts) and compact-churn (kvservice
// on tiny segments, crashing in and around compaction passes).
var recoveryScenarios = []string{"storm-mixed", "compact-churn"}

// recovery drives the layers the other way round: crashes, recovery
// scans and oracle reads instead of writes. Each item is one storm,
// seeded from the workload seed. An op is one crash+recovery cycle whose
// result the storm's oracles checked.
type recovery struct {
	specs []*scenario.Spec
	cfg   scenario.Config
}

func setupRecovery(seed int64) (workload, error) {
	r := &recovery{cfg: scenario.Config{Seed: seed}}
	for _, name := range recoveryScenarios {
		spec, err := scenario.Builtin(name)
		if err != nil {
			return nil, err
		}
		r.specs = append(r.specs, spec)
	}
	// Warm-up: the smoke storm, which touches every recovery path the
	// timed storms do.
	smoke, err := scenario.Builtin("smoke")
	if err != nil {
		return nil, err
	}
	if _, err := scenario.Run(smoke, scenario.Config{Seed: seed, Metrics: obs.NewRegistry()}); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *recovery) items() []string {
	var out []string
	for _, spec := range r.specs {
		out = append(out, spec.Name)
	}
	return out
}

func (r *recovery) run(i int, t *tracer) (any, error) {
	cfg := r.cfg
	cfg.Metrics = obs.NewRegistry()
	sp := t.begin("scenario", r.specs[i].Name)
	res, err := scenario.Run(r.specs[i], cfg)
	t.end(sp)
	return res, err
}

func (r *recovery) summarize(items []any) *roundOut {
	var results []*scenario.Result
	layer := map[string]float64{}
	var ops int
	var fences uint64
	for _, it := range items {
		s := it.(*scenario.Result)
		results = append(results, s)
		ops += s.CrashCycles
		layer["scenario.crash_cycles"] += float64(s.CrashCycles)
		layer["scenario.midbatch_aborts"] += float64(s.MidBatchAborts)
		layer["scenario.checks"] += float64(s.Checks)
		layer["scenario.violations"] += float64(len(s.Violations))
		layer["scenario.san_errors"] += float64(s.SanErrors())
		for _, d := range s.Domains {
			fences += d.Fences
		}
	}
	return &roundOut{
		ops:         ops,
		fencesPerOp: float64(fences) / float64(ops),
		sim:         results,
		layer:       layer,
	}
}

func (r *recovery) check(first *roundOut, c *checks) {
	for _, s := range first.sim.([]*scenario.Result) {
		c.expect(len(s.Violations) == 0, "scenario %s seed=%d: %d oracle violations: %+v",
			s.Scenario, s.Seed, len(s.Violations), s.Violations)
		c.expect(s.SanErrors() == 0, "scenario %s seed=%d: %d sanitizer errors", s.Scenario, s.Seed, s.SanErrors())
	}
}
