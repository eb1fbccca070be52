package main

import (
	"math"
	"testing"
)

func TestBudgetArithmetic(t *testing.T) {
	b := budgetParts{
		transportFloor: 600, frameRead: 50, frameWrite: 100, hpackDecode: 250, hpackEncode: 1500,
		flowControl: 10, priority: 700, pipe: 4500, client: 1800,
	}
	if got, want := b.dispatch(), 4500.0-50-100-250-1500-10-700; got != want {
		t.Errorf("dispatch = %v, want %v", got, want)
	}
	// Dispatch is the remainder of the pipe, so the parts add up to floor +
	// pipe + client however the pipe is split.
	if got, want := b.sum(), 600.0+4500+1800; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	if got, want := b.unexplainedShare(7500), 1-6900.0/7500; math.Abs(got-want) > 1e-12 {
		t.Errorf("unexplained share = %v, want %v", got, want)
	}
	if got := b.unexplainedShare(0); got != 0 {
		t.Errorf("no end-to-end cost: unexplained share = %v, want 0", got)
	}

	ms := metricSet{}
	b.into(ms, 7500)
	parts := ms["transport.floor_ns_per_op"] + ms["frame.read_ns_per_op"] + ms["frame.write_ns_per_op"] +
		ms["hpack.decode_ns_per_op"] + ms["hpack.encode_ns_per_op"] + b.flowControl + b.priority +
		ms["server.dispatch_ns_per_op"] + ms["h2bench.client_ns_per_op"]
	if math.Abs(parts-ms["budget.sum_ns_per_op"]) > 1e-9 {
		t.Errorf("printed parts add up to %v, budget.sum_ns_per_op says %v", parts, ms["budget.sum_ns_per_op"])
	}
	if ms["budget.e2e_cpu_ns_per_op"] != 7500 {
		t.Errorf("budget.e2e_cpu_ns_per_op = %v, want 7500", ms["budget.e2e_cpu_ns_per_op"])
	}

	// A layer dearer alone than inside the server leaves a negative
	// remainder; it is reported, not clamped.
	b.hpackEncode = 5000
	if b.dispatch() >= 0 {
		t.Errorf("dispatch = %v, want the negative remainder", b.dispatch())
	}
}

func TestPerIsZeroSafe(t *testing.T) {
	if got := per(10, 4); got != 2.5 {
		t.Errorf("per(10, 4) = %v", got)
	}
	if got := per(10, 0); got != 0 {
		t.Errorf("per(10, 0) = %v, want 0", got)
	}
}

func TestMetricSetFill(t *testing.T) {
	defs := []metricDef{{"a", "ns", "lower", 0}, {"b", "count", "higher", 0}}
	got, err := metricSet{"a": 1.5}.fill(defs)
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != (metric{1.5, "ns"}) || got["b"] != (metric{0, "count"}) || len(got) != 2 {
		t.Errorf("fill = %v", got)
	}
	if _, err := (metricSet{"a": 1, "typo": 2}).fill(defs); err == nil {
		t.Error("fill accepted an undeclared metric")
	}
	if _, err := (metricSet{"a": math.NaN()}).fill(defs); err == nil {
		t.Error("fill accepted NaN")
	}
	if _, err := (metricSet{"b": math.Inf(1)}).fill(defs); err == nil {
		t.Error("fill accepted +Inf")
	}
}

func TestAARows(t *testing.T) {
	runs := []map[string]metric{}
	for _, v := range []float64{100, 101, 99, 100, 130} {
		run := map[string]metric{}
		for _, d := range endToEndDefs {
			run[d.Name] = metric{v, d.Unit}
		}
		runs = append(runs, run)
	}
	for _, row := range aaRows("w", runs) {
		if row.Min != 99 || row.Median != 100 || row.Max != 130 {
			t.Errorf("%s: min/median/max = %v/%v/%v, want 99/100/130", row.Metric, row.Min, row.Median, row.Max)
		}
		// Python: quantiles([100,101,99,100,130], n=4) = [99.5, 100.0, 115.5].
		if want := 16.0 / 100; math.Abs(row.Spread-want) > 1e-12 {
			t.Errorf("%s: spread = %v, want %v", row.Metric, row.Spread, want)
		}
		// Only the median of setup_s is held to a bound.
		if want := row.Metric != "setup_s" && row.Bound < 0.16; row.exceeds() != want {
			t.Errorf("%s: exceeds() = %v with spread 0.16 and bound %v", row.Metric, row.exceeds(), row.Bound)
		}
	}
}
