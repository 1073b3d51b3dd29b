package main

import "testing"

func TestCompareRefusesOtherMachines(t *testing.T) {
	a := result{Workload: "serve-miss", Env: envRecord{CPU: "Xeon A", NProc: 2, GOMAXPROCS: 2}}
	if err := comparable(a, a); err != nil {
		t.Fatalf("same machine refused: %v", err)
	}
	for _, b := range []envRecord{
		{CPU: "Xeon B", NProc: 2, GOMAXPROCS: 2},
		{CPU: "Xeon A", NProc: 4, GOMAXPROCS: 2},
		{CPU: "Xeon A", NProc: 2, GOMAXPROCS: 1},
	} {
		if err := comparable(a, result{Workload: a.Workload, Env: b}); err == nil {
			t.Errorf("compared %+v with %+v", a.Env, b)
		}
	}
	if err := comparable(a, result{Workload: "scan-cold", Env: a.Env}); err == nil {
		t.Error("compared different workloads")
	}
}
