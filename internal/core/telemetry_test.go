package core

import "testing"

// TestSweepHooksReceiveStats checks the telemetry contract of Run: one
// SweepStats per sweep, in order, with phase timings that add up and a
// log-likelihood identical to the recorded trace.
func TestSweepHooksReceiveStats(t *testing.T) {
	data, _ := synthData(21, 90)
	cfg := smallCfg()
	cfg.Iterations = 12
	var stats []SweepStats
	cfg.Hooks = SweepHooks{OnSweep: func(st SweepStats) { stats = append(stats, st) }}
	s, err := NewSampler(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(stats) != cfg.Iterations {
		t.Fatalf("hook fired %d times, want %d", len(stats), cfg.Iterations)
	}
	for i, st := range stats {
		if st.Sweep != i {
			t.Fatalf("stats[%d].Sweep = %d", i, st.Sweep)
		}
		if st.Total <= 0 {
			t.Fatalf("sweep %d: non-positive total %v", i, st.Total)
		}
		if st.ZPhase < 0 || st.YPhase < 0 || st.Components < 0 {
			t.Fatalf("sweep %d: negative phase time %+v", i, st)
		}
		if sum := st.ZPhase + st.YPhase + st.Components; sum > st.Total {
			t.Fatalf("sweep %d: phases %v exceed total %v", i, sum, st.Total)
		}
		if st.LogLik != s.LogLik[i] {
			t.Fatalf("sweep %d: hook loglik %g, trace %g", i, st.LogLik, s.LogLik[i])
		}
		if st.OccupiedTopics < 1 || st.OccupiedTopics > cfg.K {
			t.Fatalf("sweep %d: occupied topics %d outside [1,%d]", i, st.OccupiedTopics, cfg.K)
		}
		if st.MaxTopicShare <= 0 || st.MaxTopicShare > 1 {
			t.Fatalf("sweep %d: max topic share %g", i, st.MaxTopicShare)
		}
	}
}

// TestSweepHooksParallelAndCollapsed checks the hook also fires on the
// parallel and collapsed sweep paths with sane phase timings.
func TestSweepHooksParallelAndCollapsed(t *testing.T) {
	data, _ := synthData(22, 80)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"parallel", func(c *Config) { c.Workers = 3 }},
		{"collapsed", func(c *Config) { c.Collapsed = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg()
			cfg.Iterations = 6
			tc.mut(&cfg)
			fired := 0
			cfg.Hooks = SweepHooks{OnSweep: func(st SweepStats) {
				fired++
				if st.Total <= 0 || st.ZPhase < 0 || st.YPhase < 0 {
					t.Errorf("bad stats %+v", st)
				}
			}}
			if _, err := Fit(data, cfg); err != nil {
				t.Fatal(err)
			}
			if fired != cfg.Iterations {
				t.Fatalf("hook fired %d times, want %d", fired, cfg.Iterations)
			}
		})
	}
}

func TestSweepHooksThen(t *testing.T) {
	var order []string
	a := SweepHooks{OnSweep: func(SweepStats) { order = append(order, "a") }}
	b := SweepHooks{OnSweep: func(SweepStats) { order = append(order, "b") }}
	a.Then(b).OnSweep(SweepStats{})
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("composition order %v", order)
	}
	// Zero values compose away.
	if (SweepHooks{}).Then(a).OnSweep == nil {
		t.Fatal("zero.Then(a) lost a")
	}
	if a.Then(SweepHooks{}).OnSweep == nil {
		t.Fatal("a.Then(zero) lost a")
	}
	if (SweepHooks{}).Then(SweepHooks{}).OnSweep != nil {
		t.Fatal("zero.Then(zero) should stay zero")
	}
}
