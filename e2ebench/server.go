package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bandana/internal/wire"
)

// serverProc is one running bandana-server child process.
type serverProc struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
	logPath  string
	exited   chan struct{}
	waitErr  error
}

// serverFlags are the deployment and data flags the benchmark passes. It
// passes nothing that selects an implementation (cache engine, update path,
// I/O scheduler, shards, sync mode), so a change to those defaults is
// measured as shipped.
func serverFlags(httpAddr, wireAddr, dataDir string, seed int64, dram int, pprof bool) []string {
	args := []string{
		"--addr", httpAddr,
		"--wire-addr", wireAddr,
		"--backend", "file",
		"--data-dir", dataDir,
		"--direct",
		"--scale", strconv.FormatFloat(tableScale, 'g', -1, 64),
		"--tables", strconv.Itoa(numTables),
		"--requests", strconv.Itoa(trainRequests),
		"--seed", strconv.FormatInt(seed, 10),
	}
	if dram > 0 {
		args = append(args, "--dram", strconv.Itoa(dram))
	}
	if pprof {
		args = append(args, "--pprof")
	}
	return args
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer launches the server on a fresh data dir and waits until both
// its HTTP and bwp listeners answer. It returns the process and the time
// from launch to healthy.
func startServer(bin, dir string, seed int64, dram int, pprof bool) (*serverProc, time.Duration, error) {
	dataDir := filepath.Join(dir, "data")
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, 0, err
	}
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	wireAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logPath := filepath.Join(dir, "server.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, serverFlags(httpAddr, wireAddr, dataDir, seed, dram, pprof)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server must not outlive the benchmark, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	p := &serverProc{cmd: cmd, httpAddr: httpAddr, wireAddr: wireAddr, logPath: logPath, exited: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	deadline := time.Now().Add(120 * time.Second)
	for {
		if p.healthy() {
			return p, time.Since(start), nil
		}
		select {
		case <-p.exited:
			return nil, 0, fmt.Errorf("server exited during setup (%v); log %s", p.waitErr, logPath)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, 0, errors.New("server not healthy after 120s")
		}
	}
}

// healthy reports whether the stats endpoint and the bwp listener answer.
func (p *serverProc) healthy() bool {
	c := http.Client{Timeout: time.Second}
	resp, err := c.Get("http://" + p.httpAddr + "/v1/stats")
	if err != nil {
		return false
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	wc, err := wire.Dial(p.wireAddr, wire.Options{DialTimeout: time.Second})
	if err != nil {
		return false
	}
	defer wc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return wc.Ping(ctx) == nil
}

// stop sends SIGTERM (a clean drain and store close), escalates to SIGKILL
// after 15 s, and waits for the process to exit.
func (p *serverProc) stop() {
	if p == nil {
		return
	}
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// tableStats is one table's section of /v1/stats.
type tableStats struct {
	Lookups               float64
	Hits                  float64
	DeltaHits             float64
	Misses                float64
	PrefetchAdds          float64
	PrefetchHits          float64
	CacheUsed             float64
	CacheArenaBytes       float64
	CacheArenaUtilization float64
	Latency               histSnap // device service per miss-path read
	ProbeLatency          histSnap
	QueueWaitLatency      histSnap
	DecodeLatency         histSnap
}

// stats is the subset of /v1/stats the benchmark reads.
type stats struct {
	Tables []tableStats
	Device struct {
		BlocksRead  float64
		ReadBatches float64
		Backend     string
		DirectIO    bool
	}
	IOSched struct {
		DeviceReads float64
		Batches     float64
		Coalesced   float64
		QueueWaitUS histSnap
	}
	Wire struct {
		Ops map[string]struct{ Latency histSnap }
	}
	UpdateLog struct {
		BytesAppended float64
		Compactions   float64
	}
	Runtime struct {
		HeapBytes    float64
		GCPauseP99US float64
	}
}

func (p *serverProc) stats() (*stats, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + p.httpAddr + "/v1/stats")
	if err != nil {
		return nil, fmt.Errorf("get stats: %w", err)
	}
	defer resp.Body.Close()
	var st stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode stats: %w", err)
	}
	return &st, nil
}

// tableSum adds f over every table.
func (s *stats) tableSum(f func(t *tableStats) float64) float64 {
	var sum float64
	for i := range s.Tables {
		sum += f(&s.Tables[i])
	}
	return sum
}

// procSample is the server's /proc accounting at one instant.
type procSample struct {
	ReadBytes, WriteBytes float64 // storage-layer bytes (/proc/<pid>/io)
	SysR, SysW            float64 // read/write-family syscalls, sockets included
	RSSMB                 float64 // VmRSS
	CPUSec                float64 // utime + stime
}

const clkTck = 100.0 // USER_HZ; 100 on every Linux ABI the toolchain targets

func readProc(pid int) (procSample, error) {
	var s procSample
	io, err := readKV(fmt.Sprintf("/proc/%d/io", pid), ":")
	if err != nil {
		return s, err
	}
	s.ReadBytes, s.WriteBytes = io["read_bytes"], io["write_bytes"]
	s.SysR, s.SysW = io["syscr"], io["syscw"]
	status, err := readKV(fmt.Sprintf("/proc/%d/status", pid), ":")
	if err != nil {
		return s, err
	}
	s.RSSMB = status["VmRSS"] / 1024 // kB
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	s.CPUSec = (ut + st) / clkTck
	return s, nil
}

// readKV parses "key<sep> value [unit]" lines into numbers.
func readKV(path, sep string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), sep)
		if !ok {
			continue
		}
		fs := strings.Fields(v)
		if len(fs) == 0 {
			continue
		}
		if x, err := strconv.ParseFloat(fs[0], 64); err == nil {
			out[strings.TrimSpace(k)] = x
		}
	}
	return out, sc.Err()
}

// hostCPU returns the machine's steal and total jiffies from /proc/stat:
// steal is time the hypervisor ran someone else while this machine's CPUs
// had work.
func hostCPU() (steal, total float64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat")
	}
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total, nil
}

var (
	reGOMAXPROCS = regexp.MustCompile(`serving with GOMAXPROCS=(\d+)`)
	reTrain      = regexp.MustCompile(`training finished in (\S+)`)
)

// serverLog extracts the server's GOMAXPROCS and SHP training time from its
// log.
func serverLog(path string) (gomaxprocs int, train time.Duration, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		return 0, 0, err
	}
	if m := reGOMAXPROCS.FindSubmatch(b); m != nil {
		gomaxprocs, _ = strconv.Atoi(string(m[1]))
	}
	if m := reTrain.FindSubmatch(b); m != nil {
		train, _ = time.ParseDuration(string(m[1]))
	}
	return gomaxprocs, train, nil
}

// fetchProfile collects a CPU profile of the given length from the server's
// --pprof endpoint into path.
func (p *serverProc) fetchProfile(seconds int, path string) error {
	c := http.Client{Timeout: time.Duration(seconds+30) * time.Second}
	resp, err := c.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", p.httpAddr, seconds))
	if err != nil {
		return fmt.Errorf("get profile: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("get profile: %s", resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return fmt.Errorf("save profile: %w", err)
	}
	return f.Close()
}
