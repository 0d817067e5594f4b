package superpage

import (
	"bytes"
	"math/bits"
	"runtime/metrics"
	"sync"
	"syscall"
	"unsafe"
)

const (
	pageSize = 4 << 10
	// chunk is a superpage: the span of one page-middle-directory entry
	// over 4 KiB pages.
	chunk        = 2 << 20
	madvCollapse = 25 // MADV_COLLAPSE, Linux 6.1
)

// mapsPath is NUL-terminated for openat, so a pass allocates nothing to
// name the file. The path is absolute, so openat ignores its directory.
var mapsPath = []byte("/proc/self/maps\x00")

// passer is the process's one pass: its state, and mu, which serializes
// passes.
type passer struct {
	mu     sync.Mutex
	last   uint64                 // the runtime's mapped bytes at the last pass
	mapped [1]metrics.Sample      // /memory/classes/total:bytes
	buf    [16 << 10]byte         // /proc/self/maps, one read at a time
	vec    [chunk / pageSize]byte // mincore's residency of one chunk
	// prev lists the chunks the last pass collapsed and cur this pass's,
	// both ascending; at is the first entry of prev not below the chunk
	// being visited.
	prev, cur []uintptr
	at        int
}

var pass = passer{mapped: [1]metrics.Sample{{Name: "/memory/classes/total:bytes"}}}

// Tick runs a pass if the runtime's mapped memory has grown by Step since
// the last pass. It never stops the world: runtime/metrics reads the
// runtime's totals as they stand.
func Tick() {
	pass.mu.Lock()
	defer pass.mu.Unlock()
	if m := pass.read(); m >= pass.last+Step {
		pass.run(m)
	}
}

// Collapse runs a pass now, however far the heap has grown.
func Collapse() {
	pass.mu.Lock()
	defer pass.mu.Unlock()
	pass.run(pass.read())
}

func (p *passer) read() uint64 {
	metrics.Read(p.mapped[:])
	return p.mapped[0].Value.Uint64()
}

// run is one pass over /proc/self/maps. limit, the runtime's mapped bytes,
// bounds the mappings it visits: a larger one holds none of this heap (the
// race detector's shadow is terabytes).
func (p *passer) run(limit uint64) {
	p.last = limit
	passes.Add(1)
	if syscall.Getpagesize() != pageSize {
		return // a larger page makes a larger superpage
	}
	fd, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, 0,
		uintptr(unsafe.Pointer(&mapsPath[0])), syscall.O_RDONLY|syscall.O_CLOEXEC, 0, 0, 0)
	if errno != 0 {
		return
	}
	defer syscall.Close(int(fd))
	p.prev, p.cur, p.at = p.cur, p.prev[:0], 0
	n := 0
	for {
		m, err := syscall.Read(int(fd), p.buf[n:])
		if m <= 0 || err != nil {
			return
		}
		n += m
		lines := p.buf[:n]
		for {
			i := bytes.IndexByte(lines, '\n')
			if i < 0 {
				break
			}
			p.mapping(lines[:i], limit)
			lines = lines[i+1:]
		}
		// Carry the partial last line to the front. A line cannot fill the
		// buffer (a path is at most 4 KiB), but if one did, drop it.
		if n = copy(p.buf[:], lines); n == len(p.buf) {
			n = 0
		}
	}
}

// mapping visits the 2 MiB-aligned chunks of one maps line's mapping
// ("start-end perms offset dev inode [path]") if it is private, anonymous,
// read-write and no larger than limit, until one shows that the mapping
// refuses superpages.
func (p *passer) mapping(line []byte, limit uint64) {
	span, line := field(line)
	perms, line := field(line)
	_, line = field(line) // offset
	_, line = field(line) // device
	inode, line := field(line)
	if string(perms) != "rw-p" || string(inode) != "0" || len(bytes.TrimSpace(line)) != 0 {
		return
	}
	dash := bytes.IndexByte(span, '-')
	if dash < 0 {
		return
	}
	lo, ok1 := hex(span[:dash])
	hi, ok2 := hex(span[dash+1:])
	if !ok1 || !ok2 || hi < lo || uint64(hi-lo) > limit {
		return
	}
	for c := (lo + chunk - 1) &^ (chunk - 1); c+chunk > c && c+chunk <= hi; c += chunk {
		if !p.chunk(c) {
			return
		}
	}
}

// chunk collapses the chunk at c if at least half its pages are resident.
// c reaches the kernel as an integer only: it was read from a file, and it
// is never made a pointer. It reports false when the kernel answers EINVAL,
// its answer for a range no retry would collapse: above all a mapping whose
// flags refuse superpages (MADV_NOHUGEPAGE, as the race runtime's metadata
// is), where no other chunk would collapse either. That refusal is not the
// machine's, and the pass leaves the mapping.
func (p *passer) chunk(c uintptr) bool {
	if _, _, e := syscall.Syscall(syscall.SYS_MINCORE, c, chunk, uintptr(unsafe.Pointer(&p.vec[0]))); e != 0 {
		return true // unmapped since the line was read
	}
	resident := 0
	for _, b := range p.vec {
		resident += int(b & 1)
	}
	if 2*resident < len(p.vec) {
		return true
	}
	for p.at < len(p.prev) && p.prev[p.at] < c {
		p.at++
	}
	// A chunk the last pass collapsed, still whole, is on a superpage yet:
	// the call is a no-op and the bytes are not counted twice.
	still := p.at < len(p.prev) && p.prev[p.at] == c && resident == len(p.vec)
	switch _, _, e := syscall.Syscall(syscall.SYS_MADVISE, c, chunk, madvCollapse); e {
	case 0:
	case syscall.EINVAL:
		return false
	default:
		refused.Add(1)
		return true
	}
	p.cur = append(p.cur, c)
	if !still {
		collapsed.Add(chunk)
	}
	return true
}

// field splits the first space-separated field off line.
func field(line []byte) (f, rest []byte) {
	line = bytes.TrimLeft(line, " ")
	if i := bytes.IndexByte(line, ' '); i >= 0 {
		return line[:i], line[i:]
	}
	return line, nil
}

// hex parses a lower-case hexadecimal address.
func hex(b []byte) (uintptr, bool) {
	if len(b) == 0 || len(b) > bits.UintSize/4 {
		return 0, false
	}
	var v uintptr
	for _, d := range b {
		switch {
		case '0' <= d && d <= '9':
			v = v<<4 | uintptr(d-'0')
		case 'a' <= d && d <= 'f':
			v = v<<4 | uintptr(d-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}
