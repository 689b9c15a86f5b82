//go:build linux && (amd64 || arm64) && !iqpaths_nommsg

package transport

import (
	"net/netip"
	"syscall"
	"testing"
)

// TestSockaddrRoundTrip: putSockaddr/getSockaddr carry IPv4 and IPv6
// addresses through the kernel's raw sockaddr forms unchanged, without
// allocating.
func TestSockaddrRoundTrip(t *testing.T) {
	cases := []struct {
		addr string
		size uint32
	}{
		{"127.0.0.1:9000", syscall.SizeofSockaddrInet4},
		{"10.1.2.3:65535", syscall.SizeofSockaddrInet4},
		{"0.0.0.0:1", syscall.SizeofSockaddrInet4},
		{"[::1]:443", syscall.SizeofSockaddrInet6},
		{"[2001:db8::7]:1", syscall.SizeofSockaddrInet6},
		{"[fe80::1:2:3:4]:5353", syscall.SizeofSockaddrInet6},
	}
	var buf [syscall.SizeofSockaddrInet6]byte
	for _, tc := range cases {
		ap := netip.MustParseAddrPort(tc.addr)
		n, err := putSockaddr(buf[:], ap)
		if err != nil {
			t.Fatalf("%s: %v", tc.addr, err)
		}
		if n != tc.size {
			t.Fatalf("%s: sockaddr length %d, want %d", tc.addr, n, tc.size)
		}
		if got := getSockaddr(buf[:]); got != ap {
			t.Fatalf("%s: round trip gave %v", tc.addr, got)
		}
		if a := testing.AllocsPerRun(100, func() {
			_, _ = putSockaddr(buf[:], ap)
			_ = getSockaddr(buf[:])
		}); a != 0 {
			t.Fatalf("%s: %v allocs per round trip, want 0", tc.addr, a)
		}
	}

	// IPv4-mapped destinations go out as AF_INET and read back unmapped,
	// matching how the read paths key peers.
	mapped := netip.MustParseAddrPort("[::ffff:192.0.2.1]:80")
	if n, err := putSockaddr(buf[:], mapped); err != nil || n != syscall.SizeofSockaddrInet4 {
		t.Fatalf("mapped: length %d err %v", n, err)
	}
	if got, want := getSockaddr(buf[:]), netip.MustParseAddrPort("192.0.2.1:80"); got != want {
		t.Fatalf("mapped: got %v want %v", got, want)
	}

	if _, err := putSockaddr(buf[:], netip.AddrPort{}); err == nil {
		t.Fatal("invalid address encoded without error")
	}
	buf = [syscall.SizeofSockaddrInet6]byte{} // AF_UNSPEC
	if got := getSockaddr(buf[:]); got.IsValid() {
		t.Fatalf("unknown family decoded to %v", got)
	}
}
