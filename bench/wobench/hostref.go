package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Host-speed reference. On a shared 2-vCPU sandbox the same repetition
// takes 20–35% longer or shorter as other tenants come and go, and that
// drift lasts minutes, so medians over a run do not remove it. The
// benchmark therefore times a fixed kernel right before and right after
// every timed interval and scales the interval by refNominal over the
// kernel's mean time: host time is reported in seconds of a reference
// host on which the kernel takes refNominal. Code under test never runs
// in the kernel, so a change to the repository moves the scaled numbers
// exactly as it moves the raw ones. The detail line keeps the raw values.
//
// The kernel mixes what the workloads' speed depends on: hashed map
// updates and a sort (cache-resident, like the oracles), random
// read-modify-writes over a 64 MB array (last-level cache and memory
// contention, like the simulator's and the shrinker's large heaps), and
// a burst of small allocations (the allocator and page faults, like the
// campaigns' garbage). It runs in a helper process, the benchmark binary
// started with hostRefEnv set, so its memory, garbage and collections
// stay out of every measured metric.

// refNominal is the kernel's time on the host the bounds were
// calibrated on (2 vCPU Intel Xeon @ 2.0 GHz).
const refNominal = 20 * time.Millisecond

const hostRefEnv = "WOBENCH_HOSTREF"

const (
	refMapIters   = 1 << 16
	refArrayWords = 8 << 20 // 64 MB
	refArrayIters = 1 << 19
	refAllocs     = 40_000
)

type kernel struct {
	m    map[uint64]uint64
	s    []uint64
	arr  []uint64
	keep [][]byte
	sink uint64
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func (k *kernel) run() time.Duration {
	t := time.Now()
	clear(k.m)
	k.s = k.s[:0]
	x := uint64(88172645463325252)
	for i := 0; i < refMapIters; i++ {
		x = xorshift(x)
		k.m[x&0xffff] += x
		k.s = append(k.s, x)
	}
	slices.Sort(k.s)
	sum := k.s[len(k.s)/2]
	for i := 0; i < refArrayIters; i++ {
		x = xorshift(x)
		j := x & (refArrayWords - 1)
		sum += k.arr[j]
		k.arr[j] = sum
	}
	k.keep = k.keep[:0]
	for i := 0; i < refAllocs; i++ {
		b := make([]byte, 48+i%96)
		b[0] = byte(i)
		k.keep = append(k.keep, b)
	}
	k.sink += sum + uint64(len(k.keep))
	return time.Since(t)
}

// serveHostRef is the helper process: for every byte read from in it
// runs the kernel once and writes the kernel's time, in nanoseconds, as
// a line to out. It returns when in closes.
func serveHostRef(in io.Reader, out io.Writer) error {
	k := &kernel{
		m:    make(map[uint64]uint64, refMapIters),
		s:    make([]uint64, 0, refMapIters),
		arr:  make([]uint64, refArrayWords),
		keep: make([][]byte, 0, refAllocs),
	}
	r := bufio.NewReader(in)
	for {
		if _, err := r.ReadByte(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(out, int64(k.run())); err != nil {
			return err
		}
	}
}

// hostRef drives the helper process.
type hostRef struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	times []float64 // ms, every kernel run
}

func newHostRef() (*hostRef, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), hostRefEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("host reference process: %w", err)
	}
	h := &hostRef{cmd: cmd, in: in, out: bufio.NewReader(out)}
	for i := 0; i < 3; i++ { // warm the helper's buffers and code
		if _, err := h.measure(); err != nil {
			h.close()
			return nil, err
		}
	}
	h.times = h.times[:0]
	return h, nil
}

// close stops the helper process and waits for it to exit.
func (h *hostRef) close() error {
	h.in.Close()
	return h.cmd.Wait()
}

// measure runs the kernel once, after a collection has finished this
// process's garbage so no concurrent mark phase competes with it.
func (h *hostRef) measure() (time.Duration, error) {
	runtime.GC()
	if _, err := h.in.Write([]byte{1}); err != nil {
		return 0, fmt.Errorf("host reference process: %w", err)
	}
	line, err := h.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("host reference process: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("host reference process: %w", err)
	}
	d := time.Duration(ns)
	h.times = append(h.times, float64(d)/1e6)
	return d, nil
}

// timed runs fn between two kernel runs and returns fn's wall time in
// seconds, raw and scaled to the reference host.
func (h *hostRef) timed(fn func() error) (raw, scaled float64, err error) {
	before, err := h.measure()
	if err != nil {
		return 0, 0, err
	}
	t := time.Now()
	if err := fn(); err != nil {
		return 0, 0, err
	}
	raw = time.Since(t).Seconds()
	after, err := h.measure()
	if err != nil {
		return 0, 0, err
	}
	return raw, raw * float64(2*refNominal) / float64(before+after), nil
}
