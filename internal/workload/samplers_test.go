package workload

import (
	"sync"
	"testing"

	"repro/internal/isa"
)

// The data samplers belong to the image: BuildProgram leaves them
// unbuilt, and the first thread builds the pair every later thread
// shares.
func TestThreadsShareImageSamplers(t *testing.T) {
	prog := MustBuildProgram(DB(), 0)
	if prog.nearZipf != nil || prog.farZipf != nil {
		t.Fatal("BuildProgram built the data samplers eagerly")
	}
	g0 := NewGeneratorThread(prog, 42, 0)
	if g0.nearZipf == nil || g0.farZipf == nil {
		t.Fatal("thread 0 has no data samplers")
	}
	if g0.nearZipf.N() != prog.Profile.NearDataBytes/64 || g0.farZipf.N() != prog.Profile.HotDataBytes/64 {
		t.Fatalf("sampler sizes %d/%d, want one rank per near/hot line", g0.nearZipf.N(), g0.farZipf.N())
	}
	for tid := 1; tid < 4; tid++ {
		g := NewGeneratorThread(prog, 42, tid)
		if g.nearZipf != g0.nearZipf || g.farZipf != g0.farZipf {
			t.Errorf("thread %d built its own data samplers", tid)
		}
	}
}

// Threads started on one fresh image from many goroutines at once build
// the samplers exactly once and walk exactly the streams that threads
// started one by one on another image of the same profile walk.
func TestConcurrentThreadsOnFreshImage(t *testing.T) {
	const threads, n = 8, 3000
	ref := MustBuildProgram(TPCW(), 2)
	want := make([][]isa.Block, threads)
	for tid := range want {
		want[tid] = blocks(NewGeneratorThread(ref, 9, tid), n)
	}

	prog := MustBuildProgram(TPCW(), 2)
	gens := make([]*Generator, threads)
	got := make([][]isa.Block, threads)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for tid := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			gens[tid] = NewGeneratorThread(prog, 9, tid)
			got[tid] = blocks(gens[tid], n)
		}()
	}
	close(start)
	wg.Wait()

	for tid := range gens {
		if gens[tid].nearZipf != gens[0].nearZipf || gens[tid].farZipf != gens[0].farZipf {
			t.Errorf("thread %d holds different data samplers than thread 0", tid)
		}
		if !equalBlocks(got[tid], want[tid]) {
			t.Errorf("thread %d: concurrent stream differs from the sequential one", tid)
		}
	}
}
