package som

import (
	"context"
	"testing"
)

// TestBMUAllocationFree pins the BMU scan — the innermost loop of both
// training algorithms — at zero heap allocations.
func TestBMUAllocationFree(t *testing.T) {
	samples := benchSamples(14, 160)
	m, err := Train(Config{Rows: 10, Cols: 10, Steps: 500, Seed: 1}, samples)
	if err != nil {
		t.Fatal(err)
	}
	x := samples[3]
	if avg := testing.AllocsPerRun(200, func() { m.bmu(x) }); avg != 0 {
		t.Errorf("bmu scan: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { m.BMU(x) }); avg != 0 {
		t.Errorf("BMU: %v allocs/op, want 0", avg)
	}
}

// TestSequentialStepAllocationFree pins one steady-state sequential
// training step — the BMU scan plus the neighbourhood update with its
// per-step kernel table — at zero heap allocations. The kernel table
// is allocated once per Train call, like the trainer does.
func TestSequentialStepAllocationFree(t *testing.T) {
	samples := benchSamples(14, 160)
	m, err := Train(Config{Rows: 5, Cols: 4, Steps: 500, Seed: 1}, samples)
	if err != nil {
		t.Fatal(err)
	}
	kern := m.newKernelTable()
	x := samples[5]
	if avg := testing.AllocsPerRun(200, func() {
		u, _ := m.bmu(x)
		m.updateNeighbourhood(x, u/m.cols, u%m.cols, 0.1, 2.5, kern)
	}); avg != 0 {
		t.Errorf("sequential step: %v allocs/op, want 0", avg)
	}
}

// TestBatchEpochAllocationFree pins one steady-state batch-training
// epoch at zero heap allocations: the batchRun arena is allocated once
// per Train call and every epoch reuses it.
func TestBatchEpochAllocationFree(t *testing.T) {
	samples := benchSamples(64, 24)
	m, err := Train(Config{Rows: 6, Cols: 6, Algorithm: Batch, BatchEpochs: 2, Seed: 1}, samples)
	if err != nil {
		t.Fatal(err)
	}
	b := newBatchRun(m, samples, false)
	ctx := context.Background()
	// Warm once so lazy runtime state (e.g. the first map growth of
	// pprof labels) cannot masquerade as a steady-state allocation.
	if err := b.epoch(ctx, 1, 1.5); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := b.epoch(ctx, 1, 1.5); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("batch epoch (serial): %v allocs/op, want 0", avg)
	}
}

// TestBatchRunMatchesTrain proves the arena-backed epoch produces the
// same map Train does: replaying Train's epoch schedule through a
// fresh batchRun over an identically initialized map must reproduce
// the trained weights bit for bit.
func TestBatchRunMatchesTrain(t *testing.T) {
	samples := benchSamples(40, 12)
	cfg := Config{Rows: 5, Cols: 5, Algorithm: Batch, BatchEpochs: 15, Seed: 7}
	want, err := Train(cfg, samples)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Train(cfg, samples)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatal("batch training is not deterministic")
	}
	for _, workers := range []int{2, 8} {
		cfgW := cfg
		cfgW.Parallelism = workers
		gotW, err := Train(cfgW, samples)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(gotW) {
			t.Errorf("batch training with %d workers differs from serial", workers)
		}
	}
}
