package main

import (
	"strings"
	"testing"
)

const procStat = `cpu  10132153 290696 3084719 46828483 16683 0 25195 175628 0 0
cpu0 1393280 32966 572056 13343292 6130 0 17875 88214 0 0
cpu1 1335834 35253 430683 13335474 2913 0 3167 87414 0 0
intr 1462898 0 0
ctxt 115315133
`

func TestParseStealTicks(t *testing.T) {
	got, err := parseStealTicks(strings.NewReader(procStat))
	if err != nil || got != 175628 {
		t.Fatalf("steal = %d, %v; want 175628", got, err)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8\n", "cpu  1 2 3\n", "cpu  1 2 3 4 5 6 7 x\n"} {
		if _, err := parseStealTicks(strings.NewReader(bad)); err == nil {
			t.Errorf("parseStealTicks(%q) succeeded", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tperfbench\nVmPeak:\t  812345 kB\nVmHWM:\t   25684 kB\nVmRSS:\t   20000 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil || got != 25684<<10 {
		t.Fatalf("VmHWM = %d, %v; want %d", got, err, 25684<<10)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
}

func TestLiveHostReadings(t *testing.T) {
	if _, err := stealTicks(); err != nil {
		t.Fatalf("steal: %v", err)
	}
	if mb, err := peakRSSMB(); err != nil || mb <= 0 {
		t.Fatalf("peak RSS %v MB, %v", mb, err)
	}
	if cpuTime() <= 0 {
		t.Fatal("no CPU time measured")
	}
}

func TestParseStatmResident(t *testing.T) {
	got, err := parseStatmResident([]byte("180345 6421 1544 1 0 19221 0\n"))
	if err != nil || got != 6421 {
		t.Fatalf("resident = %d, %v; want 6421", got, err)
	}
	if _, err := parseStatmResident([]byte("180345\n")); err == nil {
		t.Fatal("one-field statm parsed")
	}
}

func TestRSSSamplerSeesAllocation(t *testing.T) {
	s, err := startRSSSampler()
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	base := s.take()
	buf := make([]byte, 64<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	if peak := s.take(); peak < base+32 {
		t.Fatalf("peak %.1f MB after touching 64 MiB from %.1f MB", peak, base)
	}
	buf[0] = 2
}
