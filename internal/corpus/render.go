package corpus

import (
	"fmt"
	"math/rand"
	"strings"
)

// Render produces the Java source of the file for the current spec. The
// output is a pure function of the spec: refactors (NameSeed) rename
// identifiers without touching the crypto semantics, unrelated changes
// (DecoySeed) vary non-crypto helper code, and crypto flags decide what the
// abstraction ultimately sees. The spec records the random draws of each
// seed on a replay tape (see seedTape), so Render is not safe for
// concurrent use on one spec.
func (s *FileSpec) Render() string {
	return s.render(replay(&s.nameTape, s.NameSeed), replay(&s.decoyTape, s.DecoySeed))
}

// render is Render over the name and decoy generators, which must yield
// the draws of sources seeded with NameSeed and DecoySeed.
func (s *FileSpec) render(names, decoys *rand.Rand) string {
	ids := &identSet{rng: names, used: map[string]bool{}}
	w := &javaWriter{}
	w.line("package %s;", s.Package)
	w.line("")
	for _, imp := range s.imports() {
		w.line("import %s;", imp)
	}
	w.line("")
	w.line("public class %s {", s.ClassName)
	switch s.Arch {
	case ArchEnc:
		s.renderEnc(w, ids)
	case ArchDigest:
		s.renderDigest(w, ids)
	case ArchToken:
		s.renderToken(w, ids)
	case ArchPBE:
		s.renderPBE(w, ids)
	case ArchKey:
		s.renderKey(w, ids)
	case ArchMixed:
		s.renderMixed(w, ids)
	}
	s.renderDecoys(w, ids, decoys)
	w.line("}")
	return w.String()
}

// seedTape records the Int63 draws of a math/rand source seeded with seed,
// so rendering a spec again under the same NameSeed or DecoySeed replays
// them instead of seeding a source again (about 10 µs each). When the seed
// changes the tape restarts, and the draws past its end come from one
// source re-seeded in place, so a spec allocates the source's 4.9 KB of
// state once per tape rather than once per render. Copies of a spec share
// their tapes; a render whose seed differs restarts the shared tape, which
// is safe because a spec's renders never interleave.
type seedTape struct {
	seed  int64
	drawn []int64
	// live has made len(drawn) draws since it was seeded with seed when
	// seeded is set; it is allocated on the first draw past a tape.
	live   rand.Source
	seeded bool
}

// replay returns a generator yielding the draws of
// rand.New(rand.NewSource(seed)), replayed from the tape at *slot, which
// is created when missing and restarted when it holds another seed.
func replay(slot **seedTape, seed int64) *rand.Rand {
	t := *slot
	if t == nil {
		t = &seedTape{seed: seed}
		*slot = t
	} else if t.seed != seed {
		t.seed, t.drawn, t.seeded = seed, t.drawn[:0], false
	}
	return rand.New(&tapeReader{tape: t})
}

// tapeReader is one render's cursor over a seedTape.
type tapeReader struct {
	tape *seedTape
	pos  int
}

func (r *tapeReader) Int63() int64 {
	t := r.tape
	if r.pos == len(t.drawn) {
		switch {
		case t.live == nil:
			t.live = rand.NewSource(t.seed)
		case !t.seeded:
			t.live.Seed(t.seed)
		}
		t.seeded = true
		t.drawn = append(t.drawn, t.live.Int63())
	}
	r.pos++
	return t.drawn[r.pos-1]
}

// Seed is never called: a tape replays one seed.
func (r *tapeReader) Seed(int64) { panic("corpus: a seed tape cannot be re-seeded") }

func (s *FileSpec) imports() []string {
	set := map[string]bool{}
	add := func(xs ...string) {
		for _, x := range xs {
			set[x] = true
		}
	}
	switch s.Arch {
	case ArchEnc:
		add("javax.crypto.Cipher", "javax.crypto.spec.SecretKeySpec")
		if s.UseIV {
			add("javax.crypto.spec.IvParameterSpec")
		}
		if s.UseIV && !s.IVConst {
			add("java.security.SecureRandom")
		}
		if s.HasMac {
			add("javax.crypto.Mac")
		}
	case ArchDigest:
		add("java.security.MessageDigest")
	case ArchToken:
		add("java.security.SecureRandom")
	case ArchPBE:
		add("javax.crypto.spec.PBEKeySpec", "javax.crypto.SecretKeyFactory",
			"javax.crypto.spec.SecretKeySpec")
		if !s.SaltConst {
			add("java.security.SecureRandom")
		}
	case ArchKey:
		add("javax.crypto.spec.SecretKeySpec")
	case ArchMixed:
		add("javax.crypto.Cipher", "java.security.MessageDigest",
			"java.security.SecureRandom", "javax.crypto.spec.SecretKeySpec")
		if s.UseIV {
			add("javax.crypto.spec.IvParameterSpec")
		}
	}
	var out []string
	for k := range set {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// javaWriter is a tiny indented source writer.
type javaWriter struct {
	sb strings.Builder
}

func (w *javaWriter) line(format string, args ...any) {
	fmt.Fprintf(&w.sb, format, args...)
	w.sb.WriteByte('\n')
}

func (w *javaWriter) String() string { return w.sb.String() }

// constBytes renders a fixed byte-array literal of the given length; the
// values are stable so the same spec always renders identically.
func constBytes(n int) string {
	vals := make([]string, n)
	seq := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4,
		6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5}
	for i := range vals {
		vals[i] = fmt.Sprint(seq[i%len(seq)])
	}
	return "{" + strings.Join(vals, ", ") + "}"
}

// getInstanceArgs renders the transformation (and optional provider) args.
func (s *FileSpec) getInstanceArgs() string {
	if s.Provider != "" {
		return fmt.Sprintf("%q, %q", s.Transform, s.Provider)
	}
	return fmt.Sprintf("%q", s.Transform)
}

// ---------------------------------------------------------------------------
// Archetype renderers
// ---------------------------------------------------------------------------

func (s *FileSpec) renderEnc(w *javaWriter, ids *identSet) {
	enc := ids.pick(varCipher)
	dec := ids.pick(varCipher2)
	key := ids.pick(varKey)
	mat := ids.pick(varBytes)
	setup := ids.pick(methodInit)
	work := ids.pick(methodWork)

	w.line("    private Cipher %s;", enc)
	if s.TwoCiphers {
		w.line("    private Cipher %s;", dec)
	}
	w.line("")
	w.line("    public void %s(byte[] %s) {", setup, mat)
	w.line("        try {")
	keyExpr := mat
	if s.KeyConst {
		keyBytes := ids.pick(varBytes)
		w.line("            byte[] %s = %s;", keyBytes, constBytes(16))
		keyExpr = keyBytes
	}
	w.line("            SecretKeySpec %s = new SecretKeySpec(%s, \"AES\");", key, keyExpr)
	iv := ""
	if s.UseIV {
		iv = ids.pick(varIV)
		ivRaw := ids.pick(varBytes)
		if s.IVConst {
			w.line("            byte[] %s = %s;", ivRaw, constBytes(16))
		} else {
			rnd := ids.pick(varRandom)
			w.line("            byte[] %s = new byte[16];", ivRaw)
			w.line("            SecureRandom %s = new SecureRandom();", rnd)
			w.line("            %s.nextBytes(%s);", rnd, ivRaw)
		}
		w.line("            IvParameterSpec %s = new IvParameterSpec(%s);", iv, ivRaw)
	}
	initArgs := func(mode string) string {
		if iv != "" {
			return fmt.Sprintf("Cipher.%s, %s, %s", mode, key, iv)
		}
		return fmt.Sprintf("Cipher.%s, %s", mode, key)
	}
	w.line("            %s = Cipher.getInstance(%s);", enc, s.getInstanceArgs())
	w.line("            %s.init(%s);", enc, initArgs("ENCRYPT_MODE"))
	if s.TwoCiphers {
		w.line("            %s = Cipher.getInstance(%s);", dec, s.getInstanceArgs())
		w.line("            %s.init(%s);", dec, initArgs("DECRYPT_MODE"))
	}
	if s.RSAKeyExchange {
		wrap := ids.pick(varCipher)
		w.line("            Cipher %s = Cipher.getInstance(\"RSA/ECB/PKCS1Padding\");", wrap)
		w.line("            %s.init(Cipher.WRAP_MODE, %s);", wrap, key)
	}
	if s.HasMac {
		mac := ids.pick(varMac)
		w.line("            Mac %s = Mac.getInstance(\"HmacSHA256\");", mac)
		w.line("            %s.init(%s);", mac, key)
	}
	w.line("        } catch (Exception ex) {")
	w.line("            throw new IllegalStateException(ex);")
	w.line("        }")
	w.line("    }")
	w.line("")
	w.line("    public byte[] %s(byte[] data) throws Exception {", work)
	w.line("        return %s.doFinal(data);", enc)
	w.line("    }")
}

func (s *FileSpec) renderDigest(w *javaWriter, ids *identSet) {
	md := ids.pick(varDigest)
	work := ids.pick(methodWork)
	w.line("    public byte[] %s(byte[] input) throws Exception {", work)
	w.line("        MessageDigest %s = MessageDigest.getInstance(%q);", md, s.DigestAlg)
	w.line("        %s.update(input);", md)
	w.line("        return %s.digest();", md)
	w.line("    }")
	if s.TwoDigests {
		md2 := ids.pick(varDigest)
		aux := ids.pick(methodAux)
		w.line("")
		w.line("    public byte[] %s(byte[] left, byte[] right) throws Exception {", aux)
		w.line("        MessageDigest %s = MessageDigest.getInstance(%q);", md2, s.DigestAlg)
		w.line("        %s.update(left);", md2)
		w.line("        %s.update(right);", md2)
		w.line("        return %s.digest();", md2)
		w.line("    }")
	}
}

// randomCtor renders the SecureRandom creation expression for the spec.
func (s *FileSpec) randomCtor() string {
	switch {
	case s.CtorSeed:
		return fmt.Sprintf("new SecureRandom(new byte[]%s)", constBytes(8))
	case s.RandomAlg == "STRONG":
		return "SecureRandom.getInstanceStrong()"
	case s.RandomAlg != "":
		return fmt.Sprintf("SecureRandom.getInstance(%q)", s.RandomAlg)
	default:
		return "new SecureRandom()"
	}
}

func (s *FileSpec) renderToken(w *javaWriter, ids *identSet) {
	rnd := ids.pick(varRandom)
	buf := ids.pick(varBytes)
	work := ids.pick(methodWork)
	throwsClause := ""
	if s.RandomAlg != "" {
		throwsClause = " throws Exception"
	}
	w.line("    public byte[] %s()%s {", work, throwsClause)
	w.line("        SecureRandom %s = %s;", rnd, s.randomCtor())
	if s.SeedConst {
		w.line("        %s.setSeed(new byte[]%s);", rnd, constBytes(8))
	}
	w.line("        byte[] %s = new byte[32];", buf)
	w.line("        %s.nextBytes(%s);", rnd, buf)
	w.line("        return %s;", buf)
	w.line("    }")
	if s.ExtraRandom {
		rnd2 := ids.pick(varRandom)
		aux := ids.pick(methodAux)
		w.line("")
		w.line("    public long %s() {", aux)
		w.line("        SecureRandom %s = new SecureRandom();", rnd2)
		w.line("        return %s.nextLong();", rnd2)
		w.line("    }")
	}
}

func (s *FileSpec) renderPBE(w *javaWriter, ids *identSet) {
	salt := ids.pick(varBytes)
	spec := ids.pick(varMisc)
	kb := ids.pick(varBytes)
	work := ids.pick(methodAux)
	w.line("    public SecretKeySpec %s(String password) throws Exception {", work)
	if s.SaltConst {
		w.line("        byte[] %s = %s;", salt, constBytes(8))
	} else {
		rnd := ids.pick(varRandom)
		w.line("        byte[] %s = new byte[8];", salt)
		w.line("        SecureRandom %s = new SecureRandom();", rnd)
		w.line("        %s.nextBytes(%s);", rnd, salt)
	}
	w.line("        PBEKeySpec %s = new PBEKeySpec(password.toCharArray(), %s, %d, 256);",
		spec, salt, s.PBEIter)
	w.line("        SecretKeyFactory factory = SecretKeyFactory.getInstance(\"PBKDF2WithHmacSHA1\");")
	w.line("        byte[] %s = factory.generateSecret(%s).getEncoded();", kb, spec)
	w.line("        return new SecretKeySpec(%s, \"AES\");", kb)
	w.line("    }")
}

func (s *FileSpec) renderKey(w *javaWriter, ids *identSet) {
	key := ids.pick(varKey)
	key2 := ""
	setup := ids.pick(methodInit)
	mat := ids.pick(varBytes)
	w.line("    private SecretKeySpec %s;", key)
	if s.TwoKeys {
		key2 = ids.pick(varKey)
		w.line("    private SecretKeySpec %s;", key2)
	}
	w.line("")
	w.line("    public void %s(byte[] %s) {", setup, mat)
	keyExpr := mat
	if s.KeyConst {
		kb := ids.pick(varBytes)
		w.line("        byte[] %s = %s;", kb, constBytes(16))
		keyExpr = kb
	}
	w.line("        %s = new SecretKeySpec(%s, \"AES\");", key, keyExpr)
	if s.TwoKeys {
		mac := ids.pick(varBytes)
		w.line("        byte[] %s = stretch(%s);", mac, mat)
		w.line("        %s = new SecretKeySpec(%s, \"HmacSHA256\");", key2, mac)
	}
	w.line("    }")
	w.line("")
	w.line("    private byte[] stretch(byte[] in) {")
	w.line("        byte[] out = new byte[in.length];")
	w.line("        for (int i = 0; i < in.length; i++) { out[i] = in[i]; }")
	w.line("        return out;")
	w.line("    }")
}

func (s *FileSpec) renderMixed(w *javaWriter, ids *identSet) {
	enc := ids.pick(varCipher)
	key := ids.pick(varKey)
	md := ids.pick(varDigest)
	rnd := ids.pick(varRandom)
	work := ids.pick(methodWork)
	w.line("    public byte[] %s(byte[] material, byte[] data) throws Exception {", work)
	w.line("        MessageDigest %s = MessageDigest.getInstance(%q);", md, s.DigestAlg)
	w.line("        byte[] fingerprint = %s.digest(material);", md)
	keyExpr := "material"
	if s.KeyConst {
		kb := ids.pick(varBytes)
		w.line("        byte[] %s = %s;", kb, constBytes(16))
		keyExpr = kb
	}
	w.line("        SecretKeySpec %s = new SecretKeySpec(%s, \"AES\");", key, keyExpr)
	if s.UseIV {
		iv := ids.pick(varIV)
		ivRaw := ids.pick(varBytes)
		if s.IVConst {
			w.line("        byte[] %s = %s;", ivRaw, constBytes(16))
		} else {
			w.line("        byte[] %s = new byte[16];", ivRaw)
			w.line("        SecureRandom %s = new SecureRandom();", rnd)
			w.line("        %s.nextBytes(%s);", rnd, ivRaw)
		}
		w.line("        IvParameterSpec %s = new IvParameterSpec(%s);", iv, ivRaw)
		w.line("        Cipher %s = Cipher.getInstance(%s);", enc, s.getInstanceArgs())
		w.line("        %s.init(Cipher.ENCRYPT_MODE, %s, %s);", enc, key, iv)
	} else {
		w.line("        SecureRandom %s = new SecureRandom();", rnd)
		w.line("        %s.nextBytes(new byte[4]);", rnd)
		w.line("        Cipher %s = Cipher.getInstance(%s);", enc, s.getInstanceArgs())
		w.line("        %s.init(Cipher.ENCRYPT_MODE, %s);", enc, key)
	}
	w.line("        return %s.doFinal(data);", enc)
	w.line("    }")
}

// renderDecoys emits non-crypto helper code whose content varies with
// DecoySeed (drawn from rng); unrelated commits touch only this section.
func (s *FileSpec) renderDecoys(w *javaWriter, ids *identSet, rng *rand.Rand) {
	w.line("")
	bufSizes := []int{1024, 2048, 4096, 8192, 16384}
	w.line("    private static final int CHUNK = %d;", bufSizes[rng.Intn(len(bufSizes))])
	versions := []string{"v1", "v2", "2.0", "beta", "stable", "3.1", "legacy"}
	w.line("    private static final String BUILD_TAG = %q;", versions[rng.Intn(len(versions))])
	w.line("")
	helper := ids.pick(varMisc)
	mult := []int{29, 31, 33, 37}[rng.Intn(4)]
	add := []int{3, 7, 11, 13}[rng.Intn(4)]
	w.line("    private int %sChecksum(int value) {", helper)
	w.line("        return value * %d + %d;", mult, add)
	w.line("    }")
	if rng.Intn(2) == 0 {
		w.line("")
		w.line("    private String describe() {")
		w.line("        return \"%s \" + BUILD_TAG + \" chunk=\" + CHUNK;", s.ClassName)
		w.line("    }")
	}
}
