package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// daemon is one pmsynthd process started with deployment flags only.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{} // closed once Wait returns
	setup  startup
}

// startup is one daemon start: the wall time from spawn to the first
// /healthz 200, and the CPU time, user plus system, the daemon spent by
// then. The CPU time is what setup_s reports: a start takes 4-5 ms of CPU,
// nearly all of its wall time on an idle machine, and the wall time
// doubles when one other process keeps a CPU busy, while the CPU time
// stays put.
type startup struct{ wall, cpu time.Duration }

// peakRSS reads the daemon's peak resident set so far (VmHWM), in MB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/<pid>/status")
}

// hostTicks splits the machine's CPU time, in clock ticks, as the cpu line
// of /proc/stat does: what the VM's CPUs ran, idled or waited on I/O for,
// and what the hypervisor gave to other guests (steal).
type hostTicks struct{ busy, idle, iowait, steal int64 }

// readHostTicks reads the cpu line of /proc/stat.
func readHostTicks() (hostTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}, errors.New("malformed /proc/stat")
	}
	var n [8]int64 // user nice system idle iowait irq softirq steal
	for i := range n {
		if n[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return hostTicks{}, err
		}
	}
	return hostTicks{busy: n[0] + n[1] + n[2] + n[5] + n[6], idle: n[3], iowait: n[4], steal: n[7]}, nil
}

// add returns t plus the ticks from a to b.
func (t hostTicks) add(a, b hostTicks) hostTicks {
	return hostTicks{t.busy + b.busy - a.busy, t.idle + b.idle - a.idle, t.iowait + b.iowait - a.iowait, t.steal + b.steal - a.steal}
}

// startDaemon spawns bin over storeDir and waits for /healthz to answer.
func startDaemon(ctx context.Context, bin, storeDir string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-store-dir", storeDir)
	// The daemon dies with the harness, whatever ends the harness.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, url: "http://" + addr, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pmsynthd: %w", err)
	}
	go func() {
		cmd.Wait() // the exit status is read from ProcessState in stop
		close(d.exited)
	}()
	// A private transport, so probe connections never linger in the
	// load's pool.
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	deadline := start.Add(30 * time.Second)
	for {
		if err := healthy(ctx, hc, d.url); err == nil {
			d.setup.wall = time.Since(start)
			if d.setup.cpu, err = d.cpuTime(); err != nil {
				d.stop()
				return nil, err
			}
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("pmsynthd exited during startup: %v", cmd.ProcessState)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("pmsynthd did not answer /healthz within 30s")
		}
	}
}

// healthy reports whether GET /healthz answers 200.
func healthy(ctx context.Context, hc *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// cpuTime reads the daemon's CPU time so far, user plus system, in
// nanoseconds from its process CPU-time clock. /proc/<pid>/stat counts in
// 10ms ticks, coarse next to one store-warm cycle's 50ms of CPU.
func (d *daemon) cpuTime() (time.Duration, error) {
	// The Linux clock id of a process's scheduler CPU clock:
	// (^pid << 3) | CPUCLOCK_SCHED.
	clock := ^int64(d.cmd.Process.Pid)<<3 | 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("reading pmsynthd's CPU clock: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// stop shuts the daemon down gracefully (SIGTERM, then SIGKILL after 20s),
// waits for it to exit and returns its CPU time, user plus system.
func (d *daemon) stop() time.Duration {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	return d.cmd.ProcessState.UserTime() + d.cmd.ProcessState.SystemTime()
}

// freeAddr picks a loopback address with a free port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("find a free port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}
