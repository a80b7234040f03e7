package interp

import (
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/suite"
)

// TestFiredBehaviorsArmed runs every Juliet, own and torture case under
// the four shipped profiles and fails when a run reports a behavior that
// no row arms under that profile: a check that fires whatever the profile
// asks for would show here as a behavior with only unarmed rows.
func TestFiredBehaviorsArmed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every suite case under four profiles")
	}
	gateOf := map[string]gate{}
	for i, name := range gateNames {
		gateOf[name] = 1 << i
	}
	rows := map[int]gate{} // behavior code → the gates of its rows
	for _, s := range obs.CheckSites() {
		for _, name := range strings.Split(s.Gate, "|") {
			rows[s.Code] |= gateOf[name]
		}
	}
	var cases []suite.Case
	cases = append(cases, suite.Juliet().Cases...)
	cases = append(cases, suite.Own().Cases...)
	for _, c := range suite.Torture() {
		cases = append(cases, suite.Case{Name: c.Name, Source: c.Source})
	}
	profiles := []*Profile{KCCProfile(), MemcheckProfile(), CheckPointerProfile(), ValueAnalysisProfile()}
	fired := 0
	for _, c := range cases {
		prog, err := driver.Compile(c.Source, c.Name+".c", driver.Options{})
		if err != nil {
			continue // a compile failure runs nothing
		}
		for _, prof := range profiles {
			res := Run(prog, Options{Profile: prof})
			if res.UB == nil {
				continue
			}
			fired++
			if rows[res.UB.Behavior.Code]&(prof.gates|gateAlways) == 0 {
				t.Errorf("%s under %s: UB %05d fired, but no row of it is armed (gates %s)",
					c.Name, prof.Name, res.UB.Behavior.Code, rows[res.UB.Behavior.Code])
			}
		}
	}
	if fired == 0 {
		t.Fatal("no case reported a behavior")
	}
}
