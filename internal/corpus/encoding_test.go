package corpus

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestEntryIDGolden pins entry ids and recipe chunk hashes for three
// fixed streams. Both derive from content alone (the canonical record
// stream and the self-based chunk records), so no change to how a
// stream is encoded, framed or ingested may move them. The values were
// generated before chunk-file frames existed, when ingest re-chunked
// and re-encoded every container.
func TestEntryIDGolden(t *testing.T) {
	for _, g := range []struct {
		p      workload.Profile
		seed   uint64
		n      uint64
		id     string
		recipe []string
	}{
		{
			p: workload.DB(), seed: 1, n: 20_000,
			id: "7328ef11edde18bbf7f5f5c513f30356a83f796742f151145c94a3d997aa1671",
			recipe: []string{
				"7bbbe6f27752c768cfe4ea2668e153690ac54295b11504f556a358b118f353a2",
				"1e94815101563a8d8ad9fb6998c5d26483b1f63592510ddc52d2f215f14005da",
				"58d2247c58a62f007186031cbea77c9bee524145ec9d68c0941dc627f6c20508",
				"6f3e2c399f045175b3e0b48441ba38a1f35bcbf89183f01a49c3ce5bc7fa3b7e",
				"56116bc54db76dc7eb88016b5f89866dd4ddf2ceab0535b6a90d1d39db12591e",
				"b660fd473de6abb4ae87fb21f303a540782cf1ceaf3b1ed7583591c9131eb3ad",
				"f120fa419ee45a89019e644d1c650c7bbe700a3954de86bc44cda6c75cc8fa4f",
				"0b24786794616e12cf008fd45770c41419343c09d003f78899fd37e71bd4f452",
				"1fdd6b4ae912feb124ba3d0f42fad551fb16a25b24c29395ac2d4764bb1f40b4",
				"adbcdcbed52888222e53d5c2b3796824ebe7fd494b030ae44eb6870d2d8930b3",
				"a08c42f2cab8b492fc0fcd985a9d8c5f907427c57b90e19cea7424aadb0cd9b3",
				"f01d95750a416d2a75f50c32050b20c4d52775a0e6aecf45df28ac75387e9e8e",
				"ffb42e5774f41e568c9f963ac8285e417f148dd2e3feae9624eac0d3133e0a69",
				"41fd72a8ffba03e99e8c10aa70cd69bbdf5389e5bcee050d346acf4eabfdc6c2",
				"600cc6779e7385e186d396b761fb5c997b351d1f446fe08e54841f3105d4ff53",
				"e3a5c21740ba71386dd877611b1c2fe037bac4642128fc5eebef591d222f31f7",
				"51bc438dcfaa912f8ff7f4e21be4a8113f8d43c3384ba26318e15f25d8775be1",
				"89db6d01720900dee529d0de9c887bcb1b30cf8585c7d7a7333cd70bfa2cbbb3",
				"058ebbe3446e94bf6ef68dc83a09daf01a5195dbed517072f01cc58dcbb87549",
				"42473ca904fc60920db2072096cf79e624c28eea87ea2409a9d86acd835e1579",
				"ea2d63e8daff7e718383c2e68595debef3513e0d43f0082244da91713e8677da",
				"92aadfa4d06f3e2ff83cf1967bd42b110e8cd5623a42a0548e3ab48e2ee147e7",
				"9fe4f90cb0f1974109a36f177b514c072bce0ec792c7c47d62aedd4b646d06e7",
				"704813737c00f17c524c4fedc24c63b482ae0ed2fc8c2b341920907658c33c24",
				"a7bc63addc15299fd8cafe9577f5d6b64e3f1c416fc84263deb20494b2091c9b",
				"c44580501e23e66de9e8094cbe881f1f4136def07525e23cb05319998ede782f",
				"6df1eddbbe4cf3c02cf5724bd8ae46a32a41cf3e978c80cae4a9afe9cef1b9a6",
				"11663a3251be56c14b556f809f393818763b606a3fc08c71273be4e8cd56863f",
				"41db51f29247d5edba5ce14fcc62ec85270594ef706fa8abb5aaaaa4c936f799",
				"636caf3ebf1b29b33360fb10256e3f4a66af1878bbee84a4d635a69415686500",
				"e9523b133a27e37be531bcbb083f88861bffcdbf021fa37adcac1576eeff8f25",
				"4ff3145bdf3abaceb495f25504675c6c98185c2688a2d429466dd6237ba83b4f",
				"73f9ee4f7d924a6680f7e59fc8ae29340b8a136c02b09edfb78f6a1aa2614eca",
				"cf812b64a141a7f96920e980f5e21c7f2a049b249a13efe476696c59adc3d3c3",
				"38affb910a109b591492a073d256c606ade99279978fe42cf113af7cde41bdea",
				"3d2be04ba1fd869e24ff40c21e493bb96a4fb033fe9d5b1a98141828cffc4b09",
				"bb688f0569b6944e0cb50e7e886e160fae07aa256ea4a9c547bbb4a0c2cd56b0",
				"e671daeec7b0c5169b6ad33bfb6043e0796f3560f782d1dda325ff57e8f4a41a",
				"938501f80b5ede95529529a4787d6e291dd06bcc26f18037dd7c8837c49512d0",
				"edfd325cb3f63226da3cf99410abab3cca86ce050fa26857bd781460261f822d",
				"290a260fdd9c0e8f2a9bf92ff0520ae4cb7a31ce25b41633ebe8b82ad60b03d6",
				"653d8461e290a84540d0146e76fc4917c13325aa8012668188b2a63756225222",
				"3bc4d5511808bbb6141e5e2c584285ab0b50d7b0eaa3e4c6475c69e1690458e9",
				"5df1c8073f4b911a6a17de63eafcbfc6f6e5edf242a5e59d91e2b21504ac3b73",
				"93c3f4c62c91a3f2d264b9cfb98cb8733b022f71f5f3ac5f090971ab2b33a966",
				"6b87258db5ea98f4e2f45f64bad4feae0ff4aeda0ce1ff96788d1c0f95733779",
				"64798197e5adfad56303e4e450940c070d167d2684d3eeb07687cba65f285b95",
			},
		},
		{
			p: workload.Web(), seed: 5, n: 3000,
			id: "eb497e7a1993d5457fa96302f0639a5ddd492e94d97c0dc5e10172edf10a8f92",
			recipe: []string{
				"c71199d6f67e1264eb1f6e36515d9203a4fa1348d374a5b55a70a3fc03583228",
				"f1b3a89e6ff8be10ae936dc78008b043d024a223e3bd5f143edcfa5acd5ff48e",
				"8818167d0ea3e7d7333b8923cc1e5bbb495c457847bfc870b5d4442489b714db",
				"87dca644b3fdf3c769355edca3f1fec5c826b9193560c79d94e6cc7ef17da51a",
				"1e289437e32b064ca30b5f31876e145d1736e2ec1eb59d970e2d226f17444e7e",
				"c7bc992d206ef1875153db11b1e7fd7dbe9c141c745c0dc4a4acc02f3d140b9d",
				"f045ed8bc4dea2cb3a610e860b2de86c4c651873493df65c4048c7169f8b5030",
			},
		},
		{
			p: workload.Microservice(), seed: 2, n: 5000,
			id: "aa574f455b35476392b559ac8c07ac0229a5dad8e02c9ad6d6b51f96cc35b9e5",
			recipe: []string{
				"33fc7fc0c2fb7d93d7a6289c11d17381135fb069c15583417da42d36db638c1f",
				"2e45eb3dcd6d1f95a7c53d5d044e94d7cb6623a2b067ce39da7df3b8eaf443b3",
				"2fc42347c64294ced26ef4ca4e934c4e04a1681865b33414064a4e37994b9dd8",
				"5e8195ff3c7bf51c77717e1967170cc83e4c5d8b87a69498ee16483d9a3eeb7f",
				"1b9b75d5925822abb06165587b0d32e2e94feb84fbdf2d5d9c06e912b880fd13",
				"f7ae3c54d976355f69930e2d5747ff99058f27557621424a0000c95b43c8d241",
				"39ceb0a51f9934a5f43a137a87af4d0b592fa0cb75cec1c05d5afbe2ae1dd238",
				"006e8b894bab743ae4ebafb4d9a953c7aef8ae5572d4223094ad7f9c081586da",
				"9abc3a9656c1e8bb013dd7534e6f1cbb9701dc6316483cf0eb2ca8883426de5a",
			},
		},
	} {
		s := newStore(t)
		m, err := s.Capture(workload.NewGenerator(workload.MustBuildProgram(g.p, 0), g.seed), g.p.Name, 0, g.n)
		if err != nil {
			t.Fatal(err)
		}
		if m.ID != g.id {
			t.Errorf("%s seed %d: id %s, golden %s", g.p.Name, g.seed, m.ID, g.id)
		}
		if len(m.Recipe) != len(g.recipe) {
			t.Errorf("%s seed %d: %d chunks, golden %d", g.p.Name, g.seed, len(m.Recipe), len(g.recipe))
			continue
		}
		for i, ref := range m.Recipe {
			if ref.Hash != g.recipe[i] {
				t.Errorf("%s seed %d: chunk %d is %s, golden %s", g.p.Name, g.seed, i, ref.Hash, g.recipe[i])
			}
		}
	}
}

// TestLegacyFixturesIngestToParentIDs: a v1 stream and a container of
// 0x01 frames, both written before chunk-file frames existed, ingest to
// the ids they were given then.
func TestLegacyFixturesIngestToParentIDs(t *testing.T) {
	for file, want := range map[string]string{
		"legacy-v1.trc":              "d05bf4e478da78ea66a8985f667d8ea5a7f7ecaaeb7a2f08a21ff6701b8fd938",
		"legacy-v2-flate-frames.trc": "acb0bb6f8758fbcdceef088716b9c41c27718e54fe09b85da4bed59f0ce90d3e",
	} {
		data, err := os.ReadFile(filepath.Join("..", "trace", "testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		s := newStore(t)
		m, err := s.Put(bytes.NewReader(data), "ingest")
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if m.ID != want {
			t.Fatalf("%s: id %s, want %s", file, m.ID, want)
		}
		if err := s.Verify(m.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReaderCopiesChunkFiles: a download holds every stored chunk file
// verbatim, and putting it into a fresh store reproduces the entry —
// same id, same recipe, byte-identical chunk files — without
// re-encoding a chunk.
func TestReaderCopiesChunkFiles(t *testing.T) {
	src := newStore(t)
	m := captureWeb(t, src, 3, 6000)
	data := containerBytes(t, src, m.ID)
	files := make(map[string][]byte)
	for _, ref := range m.Recipe {
		file, err := os.ReadFile(src.chunkPath(ref.Hash))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, file) {
			t.Fatalf("download does not hold chunk %s verbatim", ref.Hash)
		}
		files[ref.Hash] = file
	}

	dst := newStore(t)
	m2, err := dst.Put(bytes.NewReader(data), "upload")
	if err != nil {
		t.Fatal(err)
	}
	if m2.ID != m.ID || !equalContent(m2, m) {
		t.Fatalf("re-put changed the entry:\n%+v\n%+v", m, m2)
	}
	for hash, want := range files {
		got, err := os.ReadFile(dst.chunkPath(hash))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %s differs after download and re-put", hash)
		}
	}

	// The container Put consumed is one the writer made: its frames are
	// the stored chunk files, in recipe order.
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		_, file, err := r.ReadFrame()
		if err == io.EOF {
			if i != len(m.Recipe) {
				t.Fatalf("%d frames, recipe has %d", i, len(m.Recipe))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, files[m.Recipe[i].Hash]) {
			t.Fatalf("frame %d is not recipe chunk %d", i, i)
		}
	}
}

// TestPutKeepsFrameChunkFiles: Put keeps an input frame's chunk file
// when the frame is the chunk it cuts and the file is in the columnar
// codec, even if its flate stream differs from what this build would
// write, and re-encodes a codec-0 file, which is never written again.
func TestPutKeepsFrameChunkFiles(t *testing.T) {
	src := newStore(t)
	m := captureWeb(t, src, 4, 4000)
	for _, tc := range []struct {
		name   string
		remake func(file []byte) []byte
		keeps  bool
	}{
		{"columnar at another flate level", recompressColumnar, true},
		{"codec 0", func(file []byte) []byte {
			blocks, _, err := trace.DecodeChunkFile(file)
			if err != nil {
				t.Fatal(err)
			}
			return flateChunkFile(t, trace.RawRecords(blocks))
		}, false},
	} {
		var buf bytes.Buffer
		w, _ := trace.NewWriterV2(&buf, m.Name, m.ASID, 0)
		inputs := make(map[string][]byte)
		for _, ref := range m.Recipe {
			orig, err := os.ReadFile(src.chunkPath(ref.Hash))
			if err != nil {
				t.Fatal(err)
			}
			file := tc.remake(orig)
			if bytes.Equal(file, orig) {
				t.Fatalf("%s: remade chunk file equals the stored one", tc.name)
			}
			inputs[ref.Hash] = file
			if err := w.WriteChunk(file, ref.Records, ref.Instrs); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		dst := newStore(t)
		m2, err := dst.Put(&buf, "upload")
		if err != nil {
			t.Fatal(err)
		}
		if m2.ID != m.ID || !equalContent(m2, m) {
			t.Fatalf("%s: put changed the entry", tc.name)
		}
		for hash, in := range inputs {
			got, err := os.ReadFile(dst.chunkPath(hash))
			if err != nil {
				t.Fatal(err)
			}
			if kept := bytes.Equal(got, in); kept != tc.keeps {
				t.Fatalf("%s: chunk %s kept = %v, want %v", tc.name, hash, kept, tc.keeps)
			}
			if got[0] != 1 {
				t.Fatalf("%s: stored chunk %s has codec %d", tc.name, hash, got[0])
			}
		}
		if err := dst.Verify(m2.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// recompressColumnar re-deflates a columnar chunk file's transform at
// BestSpeed: the same content in a different, valid file.
func recompressColumnar(file []byte) []byte {
	hdr := 1
	_, n := binary.Uvarint(file[hdr:])
	hdr += n
	_, n = binary.Uvarint(file[hdr:])
	hdr += n
	plain, err := io.ReadAll(flate.NewReader(bytes.NewReader(file[hdr:])))
	if err != nil {
		panic(err)
	}
	var out bytes.Buffer
	out.Write(file[:hdr])
	fw, _ := flate.NewWriter(&out, flate.BestSpeed)
	fw.Write(plain)
	fw.Close()
	return out.Bytes()
}
