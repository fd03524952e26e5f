package pkt

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleTFT() TFT {
	return TFT{
		Op: TFTOpCreateNew,
		Filters: []PacketFilter{
			{
				ID: 1, Direction: DirBidirectional, Precedence: 10,
				RemoteAddr: AddrFrom(10, 10, 0, 5), RemoteMask: Addr{255, 255, 255, 255},
			},
			{
				ID: 2, Direction: DirUplink, Precedence: 20,
				RemoteAddr: AddrFrom(10, 20, 0, 0), RemoteMask: Addr{255, 255, 0, 0},
			},
		},
	}
}

func TestTFTEncodeDecodeRoundTrip(t *testing.T) {
	orig := sampleTFT()
	b := orig.Encode(nil)
	var got TFT
	n, err := got.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Errorf("decode consumed %d of %d bytes", n, len(b))
	}
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, orig)
	}
}

func TestTFTMatchUplinkByRemoteAddr(t *testing.T) {
	server := AddrFrom(10, 10, 0, 5)
	tft := DedicatedBearerTFT(server)

	toServer := FiveTuple{Src: AddrFrom(172, 16, 0, 9), Dst: server, SrcPort: 40000, DstPort: 8080, Proto: ProtoTCP}
	if !tft.MatchUplink(toServer, 0) {
		t.Error("uplink packet to CI server did not match dedicated TFT")
	}

	toInternet := toServer
	toInternet.Dst = AddrFrom(93, 184, 216, 34)
	if tft.MatchUplink(toInternet, 0) {
		t.Error("internet-bound packet matched dedicated TFT")
	}
}

func TestTFTDirectionality(t *testing.T) {
	filter := PacketFilter{
		ID: 1, Direction: DirUplink, Precedence: 1,
		RemoteAddr: AddrFrom(9, 9, 9, 9), RemoteMask: Addr{255, 255, 255, 255},
	}
	up := FiveTuple{Src: AddrFrom(1, 1, 1, 1), Dst: AddrFrom(9, 9, 9, 9), Proto: ProtoUDP}
	if tft := (TFT{Op: TFTOpCreateNew, Filters: []PacketFilter{filter}}); !tft.MatchUplink(up, 0) {
		t.Error("uplink filter did not match uplink packet")
	}
	filter.Direction = DirDownlink
	if tft := (TFT{Op: TFTOpCreateNew, Filters: []PacketFilter{filter}}); tft.MatchUplink(up, 0) {
		t.Error("downlink-only filter matched an uplink packet")
	}
}

func TestTFTSubnetMask(t *testing.T) {
	tft := TFT{Op: TFTOpCreateNew, Filters: []PacketFilter{{
		ID: 1, Direction: DirBidirectional, Precedence: 1,
		RemoteAddr: AddrFrom(10, 10, 0, 0), RemoteMask: Addr{255, 255, 0, 0},
	}}}
	in := FiveTuple{Src: AddrFrom(1, 1, 1, 1), Dst: AddrFrom(10, 10, 99, 3)}
	out := FiveTuple{Src: AddrFrom(1, 1, 1, 1), Dst: AddrFrom(10, 11, 0, 3)}
	if !tft.MatchUplink(in, 0) {
		t.Error("in-subnet destination did not match")
	}
	if tft.MatchUplink(out, 0) {
		t.Error("out-of-subnet destination matched")
	}
}

func TestTFTPrecedenceOrdering(t *testing.T) {
	// The wire lists filters in any order; Decode establishes evaluation
	// (precedence) order once, stably, and matching never touches it again.
	wire := (&TFT{Op: TFTOpCreateNew, Filters: []PacketFilter{
		{ID: 3, Direction: DirBidirectional, Precedence: 20},
		{ID: 2, Direction: DirBidirectional, Precedence: 10},
		{ID: 1, Direction: DirBidirectional, Precedence: 20},
	}}).Encode(nil)
	var tft TFT
	if _, err := tft.Decode(wire); err != nil {
		t.Fatal(err)
	}
	var ids []uint8
	for _, f := range tft.Filters {
		ids = append(ids, f.ID)
	}
	if !reflect.DeepEqual(ids, []uint8{2, 3, 1}) {
		t.Errorf("decoded filter order %v, want [2 3 1]", ids)
	}
}

// TestTFTMatchIsReadOnly: a TFT is a shared template, so matching must
// neither reorder its filters (which would change what Encode emits) nor
// allocate.
func TestTFTMatchIsReadOnly(t *testing.T) {
	tft := TFT{Op: TFTOpCreateNew, Filters: []PacketFilter{
		{ID: 2, Direction: DirBidirectional, Precedence: 20, RemoteAddr: AddrFrom(2, 2, 2, 2), RemoteMask: Addr{255, 255, 255, 255}},
		{ID: 1, Direction: DirBidirectional, Precedence: 10, RemoteAddr: AddrFrom(3, 3, 3, 3), RemoteMask: Addr{255, 255, 255, 255}},
	}}
	before := tft.Encode(nil)
	ft := FiveTuple{Src: AddrFrom(1, 1, 1, 1), Dst: AddrFrom(2, 2, 2, 2), Proto: ProtoUDP}
	allocs := testing.AllocsPerRun(100, func() {
		if !tft.MatchUplink(ft, 0) {
			t.Fatal("the 2.2.2.2 filter did not match")
		}
	})
	if allocs != 0 {
		t.Errorf("MatchUplink allocates %.0f objects per call", allocs)
	}
	if after := tft.Encode(nil); !bytes.Equal(before, after) {
		t.Errorf("matching changed the encoding:\n before %x\n after  %x", before, after)
	}
}

func TestTFTEmptyFilterIsWildcard(t *testing.T) {
	tft := TFT{Op: TFTOpCreateNew, Filters: []PacketFilter{{ID: 1, Direction: DirBidirectional}}}
	any := FiveTuple{Src: AddrFrom(5, 5, 5, 5), Dst: AddrFrom(6, 6, 6, 6), SrcPort: 1, DstPort: 2, Proto: ProtoICMP}
	if !tft.MatchUplink(any, 0xff) {
		t.Error("wildcard filter did not match arbitrary packet")
	}
}

func TestTFTEncodeTooManyFiltersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Encode with 16 filters did not panic")
		}
	}()
	tft := TFT{Op: TFTOpCreateNew, Filters: make([]PacketFilter, 16)}
	tft.Encode(nil)
}

func TestTFTPropertyRoundTrip(t *testing.T) {
	f := func(id, prec uint8, addr, mask [4]byte) bool {
		orig := TFT{Op: TFTOpCreateNew, Filters: []PacketFilter{{
			ID: id & 0x0f, Direction: DirBidirectional, Precedence: prec,
			RemoteAddr: Addr(addr), RemoteMask: Addr(mask),
		}}}
		b := orig.Encode(nil)
		var got TFT
		n, err := got.Decode(b)
		if err != nil || n != len(b) {
			return false
		}
		return reflect.DeepEqual(got, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTFTDecodeTruncated(t *testing.T) {
	tft := sampleTFT()
	b := tft.Encode(nil)
	for n := 1; n < len(b); n++ {
		var got TFT
		if _, err := got.Decode(b[:n]); err == nil {
			t.Errorf("decode of %d-byte prefix succeeded", n)
		}
	}
}
