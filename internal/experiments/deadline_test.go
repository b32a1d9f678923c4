package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sim"
)

// burnEvents runs self-rescheduling events on the scenario's scheduler
// until d of wall time has passed, like a driver doing real simulation
// work. The watchdog sees every event, so an armed budget can trip it.
func burnEvents(sc *core.Scenario, d time.Duration) {
	until := time.Now().Add(d)
	var tick func()
	tick = func() {
		if time.Now().Before(until) {
			sc.Sched.After(time.Nanosecond, tick)
		}
	}
	sc.Sched.After(0, tick)
	sc.Run(time.Hour)
}

// The campaign deadline bounds an experiment, not each of its sweep
// points: K scenarios that each use half the budget add up to K/2
// budgets, so the experiment must fail on its deadline soon after the
// first full budget is spent.
func TestCampaignDeadlineIsPerExperiment(t *testing.T) {
	const (
		budget = 100 * time.Millisecond
		points = 4
	)
	sweep := Runner{ID: "Z1", Title: "sweep", Run: func(o Options) core.Result {
		for i := 0; i < points; i++ {
			burnEvents(o.scenario(geom.Open(), uint64(i)), budget/2)
		}
		res := core.Result{ID: "Z1"}
		res.AddCheck("completed", "yes", "yes", true)
		return res
	}}
	sts := collectStatuses([]Runner{sweep}, QuickOptions(), Campaign{Deadline: budget})
	var de *sim.DeadlineError
	if sts[0].Failure == nil || !asDeadline(sts[0].Failure, &de) {
		t.Fatalf("a sweep of %d half-budget points passed under a %v deadline: %s", points, budget, sts[0].Result)
	}
	if de.Budget != budget || de.Elapsed < budget || de.Elapsed >= budget*3/2 {
		t.Errorf("deadline tripped with Budget %v, Elapsed %v; want Budget %v and Elapsed in [%v, %v)",
			de.Budget, de.Elapsed, budget, budget, budget*3/2)
	}
}

// Two campaigns running at once keep their own deadlines: a scenario
// built by a campaign without a deadline is never armed with a
// concurrent campaign's tight one.
func TestConcurrentCampaignDeadlinesIndependent(t *testing.T) {
	aRunning := make(chan struct{})
	bBuilt := make(chan struct{})
	wedged := Runner{ID: "ZA", Title: "wedged", Run: func(o Options) core.Result {
		sc := o.scenario(geom.Open(), 1)
		close(aRunning)
		<-bBuilt
		burnEvents(sc, time.Hour)
		return core.Result{ID: "ZA"}
	}}
	slow := Runner{ID: "ZB", Title: "slow", Run: func(o Options) core.Result {
		<-aRunning
		sc := o.scenario(geom.Open(), 2)
		close(bBuilt)
		burnEvents(sc, 120*time.Millisecond)
		res := core.Result{ID: "ZB"}
		res.AddCheck("completed", "yes", "yes", true)
		return res
	}}
	aDone := make(chan Status, 1)
	go func() {
		aDone <- collectStatuses([]Runner{wedged}, QuickOptions(), Campaign{Deadline: 20 * time.Millisecond})[0]
	}()
	b := collectStatuses([]Runner{slow}, QuickOptions(), Campaign{})[0]
	if b.Failure != nil || !b.Result.Pass() {
		t.Errorf("campaign without a deadline failed next to a 20ms one: %s", b.Result)
	}
	a := <-aDone
	var de *sim.DeadlineError
	if a.Failure == nil || !asDeadline(a.Failure, &de) {
		t.Errorf("wedged campaign did not fail on its own deadline: %s", a.Result)
	}
}

// Drivers must build every scenario through Options.scenario and carry
// Options into auxiliary runs through Options.companion: a direct
// core.NewScenario or sim.NewScheduler call, or a fresh Options
// literal, would build schedulers the experiment's deadline never
// reaches.
func TestDriversBuildScenariosThroughOptions(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	// The only places allowed to do each thing directly.
	allowed := map[string]map[string]bool{
		"core.NewScenario": {"scenario": true},
		"sim.NewScheduler": {},
		"Options{}":        {"companion": true, "DefaultOptions": true, "QuickOptions": true},
	}
	seen := 0
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				what := ""
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if pkg, ok := n.X.(*ast.Ident); ok {
						what = pkg.Name + "." + n.Sel.Name
					}
				case *ast.CompositeLit:
					if id, ok := n.Type.(*ast.Ident); ok && id.Name == "Options" {
						what = "Options{}"
					}
				}
				rule, watched := allowed[what]
				if !watched {
					return true
				}
				seen++
				if !rule[fn] {
					t.Errorf("%s: %s in %s bypasses the experiment's wall clock; use Options.scenario / Options.companion",
						fset.Position(n.Pos()), what, fn)
				}
				return true
			})
		}
	}
	if seen == 0 {
		t.Fatal("guard matched nothing; it no longer sees the helpers it protects")
	}
}
