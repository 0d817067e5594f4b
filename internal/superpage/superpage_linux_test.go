package superpage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"testing"
	"unsafe"
)

// requireCollapse skips t where this kernel cannot collapse a chunk: THP set
// to never, no MADV_COLLAPSE (EINVAL, before Linux 6.1), or no free 2 MiB
// page to collapse into. It probes with a chunk of its own mapping.
func requireCollapse(t *testing.T) {
	t.Helper()
	if b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled"); err != nil || bytes.Contains(b, []byte("[never]")) {
		t.Skipf("transparent huge pages are off (%q, %v)", b, err)
	}
	if syscall.Getpagesize() != pageSize {
		t.Skipf("page size %d: a superpage is not 2 MiB", syscall.Getpagesize())
	}
	region := mapChunks(t, 1)
	for i := 0; i < len(region); i += pageSize {
		region[i] = 1
	}
	err := syscall.Madvise(region, madvCollapse)
	switch {
	case errors.Is(err, syscall.EINVAL):
		t.Skip("the kernel has no MADV_COLLAPSE")
	case errors.Is(err, syscall.EAGAIN) || errors.Is(err, syscall.ENOMEM):
		t.Skipf("the kernel found no free 2 MiB page: %v", err)
	case err != nil:
		t.Fatalf("MADV_COLLAPSE of a whole chunk: %v", err)
	}
}

// mapChunks maps n 2 MiB-aligned chunks of private anonymous memory,
// untouched, and unmaps them when t ends.
func mapChunks(t *testing.T, n int) []byte {
	t.Helper()
	b, err := syscall.Mmap(-1, 0, (n+1)*chunk, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(b) })
	off := -int(uintptr(unsafe.Pointer(&b[0]))) & (chunk - 1)
	return b[off : off+n*chunk]
}

// residentPages reports how many pages of each chunk of region mincore finds
// resident.
func residentPages(t *testing.T, region []byte) []int {
	t.Helper()
	var vec [chunk / pageSize]byte
	var out []int
	for off := 0; off < len(region); off += chunk {
		if _, _, e := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&region[off])), chunk, uintptr(unsafe.Pointer(&vec[0]))); e != 0 {
			t.Fatalf("mincore: %v", e)
		}
		n := 0
		for _, v := range vec {
			n += int(v & 1)
		}
		out = append(out, n)
	}
	return out
}

// anonHugeBytes reads AnonHugePages from /proc/self/smaps_rollup.
func anonHugeBytes(t *testing.T) uint64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/smaps_rollup")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("AnonHugePages:")); ok {
			kb, err := strconv.ParseUint(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 10, 64)
			if err != nil {
				t.Fatalf("AnonHugePages line %q: %v", line, err)
			}
			return kb << 10
		}
	}
	t.Fatal("smaps_rollup has no AnonHugePages line")
	return 0
}

// TestCollapseBacksGrownHeap grows the heap by 64 MiB of live objects and
// runs a pass: the process's AnonHugePages must rise by at least 90 % of
// the bytes the pass reports collapsing, and the pass must report most of
// the growth.
func TestCollapseBacksGrownHeap(t *testing.T) {
	requireCollapse(t)
	// Release the free heap first, so the scavenger splits no superpage of
	// the baseline pass while this test reads AnonHugePages.
	debug.FreeOSMemory()
	Collapse()
	bytes0, huge0 := Bytes(), anonHugeBytes(t)
	grown := make([][]byte, 64)
	for i := range grown {
		grown[i] = make([]byte, 1<<20)
		for j := 0; j < len(grown[i]); j += pageSize {
			grown[i][j] = 1
		}
	}
	refused0 := Refusals()
	Collapse()
	got, rise := Bytes()-bytes0, anonHugeBytes(t)-huge0
	runtime.KeepAlive(grown)
	t.Logf("collapsed %d MiB, AnonHugePages rose %d MiB, %d chunks refused", got>>20, rise>>20, Refusals()-refused0)
	if got < 32<<20 {
		t.Errorf("the pass collapsed %d MiB of 64 MiB grown, want at least 32", got>>20)
	}
	if rise < got/10*9 {
		t.Errorf("AnonHugePages rose %d KiB, under 90 %% of the %d KiB collapsed", rise>>10, got>>10)
	}
}

// TestSparseChunksStay pins the residency gate: a chunk under half resident
// is never collapsed, so its resident pages stay as they were (a collapse
// would fill all 512), and a chunk at half is.
func TestSparseChunksStay(t *testing.T) {
	requireCollapse(t)
	// The pass visits a mapping no larger than the runtime's mapped memory,
	// and this test's region must be one it visits.
	ballast := make([]byte, 64<<20)
	region := mapChunks(t, 4)
	touched := []int{1, chunk/pageSize/2 - 1, chunk / pageSize / 2, 1}
	for c, n := range touched {
		for i := 0; i < n; i++ {
			region[c*chunk+i*pageSize] = 1
		}
	}
	if before := residentPages(t, region); before[0] != 1 {
		t.Skipf("a touch faulted in %d pages of a chunk: the kernel maps superpages on fault", before[0])
	}
	Collapse()
	runtime.KeepAlive(ballast)
	want := []int{1, chunk/pageSize/2 - 1, chunk / pageSize, 1}
	got := residentPages(t, region)
	for c := range want {
		if got[c] != want[c] {
			t.Errorf("chunk %d, %d pages touched: %d resident after the pass, want %d", c, touched[c], got[c], want[c])
		}
	}
}

// TestNoHugepageMappingIsNotARefusal: a mapping marked MADV_NOHUGEPAGE
// refuses superpages by its flags (EINVAL), as the race runtime's metadata
// does, so a pass's visit of it, every chunk fully resident, counts no
// refusal: the count is left to the machine's (no free 2 MiB page).
func TestNoHugepageMappingIsNotARefusal(t *testing.T) {
	requireCollapse(t)
	region := mapChunks(t, 4)
	if err := syscall.Madvise(region, syscall.MADV_NOHUGEPAGE); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(region); i += pageSize {
		region[i] = 1
	}
	// The pass's visit of this one mapping, as its maps line reads: the
	// rest of the process's mappings may be refused for want of memory.
	lo := uintptr(unsafe.Pointer(&region[0]))
	line := fmt.Appendf(nil, "%x-%x rw-p 00000000 00:00 0", lo, lo+uintptr(len(region)))
	pass.mu.Lock()
	refused0 := Refusals()
	pass.mapping(line, uint64(len(region)))
	got := Refusals() - refused0
	pass.mu.Unlock()
	if got != 0 {
		t.Errorf("a pass over a MADV_NOHUGEPAGE mapping of 4 resident chunks counted %d refusals, want 0", got)
	}
	if res := residentPages(t, region); res[0] != chunk/pageSize {
		t.Fatalf("chunk 0 has %d of %d pages resident: the visit did not see it whole", res[0], chunk/pageSize)
	}
}

// TestPassAllocatesNothing pins a pass over a steady heap at zero Go
// allocations, so the store's heap reading does not see it.
func TestPassAllocatesNothing(t *testing.T) {
	if got := testing.AllocsPerRun(5, Collapse); got != 0 {
		t.Errorf("a pass allocates %.1f times", got)
	}
}
