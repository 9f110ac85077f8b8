package corpus

import (
	"fmt"
	"math/rand"
	"strings"
)

// Archetype classifies the crypto workload of a generated file. Each
// archetype exercises a characteristic subset of the six target classes,
// chosen so that per-class usage volumes and co-occurrence reflect the
// paper's dataset (SecureRandom everywhere, Cipher together with
// SecretKeySpec and IvParameterSpec, PBEKeySpec rare).
type Archetype int

// File archetypes.
const (
	ArchEnc    Archetype = iota // symmetric encryption helper
	ArchDigest                  // hashing utility
	ArchToken                   // token/nonce generation
	ArchPBE                     // password-based key derivation
	ArchKey                     // key registry
	ArchMixed                   // cipher + digest + random in one class
)

// String names the archetype.
func (a Archetype) String() string {
	return [...]string{"enc", "digest", "token", "pbe", "key", "mixed"}[a]
}

// FileSpec is the semantic configuration of one generated file. Rendering
// is a pure function of the spec, so commits are spec transitions: a
// refactor bumps NameSeed, an unrelated change bumps DecoySeed, and
// security fixes/bugs flip the crypto flags.
type FileSpec struct {
	Arch      Archetype
	Package   string
	ClassName string
	NameSeed  int64
	DecoySeed int64

	// Cipher configuration.
	Transform      string // "AES", "AES/CBC/PKCS5Padding", "DES", ...
	Provider       string // "" (default provider) or "BC"
	TwoCiphers     bool
	UseIV          bool
	IVConst        bool
	KeyConst       bool
	RSAKeyExchange bool
	HasMac         bool

	// Digest configuration.
	DigestAlg  string
	TwoDigests bool

	// SecureRandom configuration. RandomAlg: "" = plain constructor,
	// "STRONG" = getInstanceStrong(), otherwise getInstance(RandomAlg).
	RandomAlg   string
	CtorSeed    bool // new SecureRandom(constantBytes)
	SeedConst   bool // setSeed(constant)
	ExtraRandom bool

	// PBE configuration.
	PBEIter   int
	SaltConst bool
	TwoKeys   bool

	// nameTape and decoyTape replay the draws of NameSeed and DecoySeed
	// across renders.
	nameTape, decoyTape *seedTape
}

// Path returns the stable repository path of the file.
func (s *FileSpec) Path() string {
	return "src/" + strings.ReplaceAll(s.Package, ".", "/") + "/" + s.ClassName + ".java"
}

// newFileSpec draws an initial configuration. The "insecure" probabilities
// approximate the matching rates of Figure 10 (most projects don't pick
// SHA1PRNG or BouncyCastle; about a third of cipher users sit in ECB; weak
// digests abound; hard-coded IVs/keys/salts are a small but real fraction).
func newFileSpec(rng *rand.Rand, arch Archetype) *FileSpec {
	s := &FileSpec{
		Arch:      arch,
		Package:   pkgName(rng),
		ClassName: className(rng, arch),
		NameSeed:  rng.Int63(),
		DecoySeed: rng.Int63n(1 << 30),
	}
	pickCipher := func() {
		r := rng.Float64()
		switch {
		case r < 0.17:
			s.Transform = "AES" // implicit ECB
		case r < 0.27:
			s.Transform = "AES/ECB/PKCS5Padding"
		case r < 0.37:
			s.Transform = "DES/CBC/PKCS5Padding"
			if rng.Float64() < 0.4 {
				s.Transform = "DES"
			}
		case r < 0.80:
			s.Transform = "AES/CBC/PKCS5Padding"
		default:
			s.Transform = "AES/GCM/NoPadding"
		}
		pr := rng.Float64()
		if pr < 0.025 {
			s.Provider = "BC"
		} else if pr < 0.065 {
			s.Provider = "SunJCE"
		}
		mode := s.Transform
		s.UseIV = strings.Contains(mode, "CBC") || strings.Contains(mode, "GCM")
		s.IVConst = s.UseIV && rng.Float64() < 0.10
		s.KeyConst = rng.Float64() < 0.055
	}
	switch arch {
	case ArchEnc:
		pickCipher()
		s.TwoCiphers = rng.Float64() < 0.45
		s.RSAKeyExchange = rng.Float64() < 0.045
		s.HasMac = s.RSAKeyExchange && rng.Float64() < 0.5
	case ArchDigest:
		r := rng.Float64()
		switch {
		case r < 0.20:
			s.DigestAlg = "MD5"
		case r < 0.37:
			s.DigestAlg = "SHA-1"
		case r < 0.42:
			s.DigestAlg = "SHA1"
		default:
			s.DigestAlg = "SHA-256"
		}
		s.TwoDigests = rng.Float64() < 0.3
	case ArchToken:
		r := rng.Float64()
		switch {
		case r < 0.055:
			s.RandomAlg = "SHA1PRNG"
		case r < 0.075:
			s.RandomAlg = "NativePRNG"
		case r < 0.095:
			s.RandomAlg = "STRONG"
		default:
			s.RandomAlg = ""
		}
		s.CtorSeed = s.RandomAlg == "" && rng.Float64() < 0.01
		s.SeedConst = !s.CtorSeed && rng.Float64() < 0.004
		s.ExtraRandom = rng.Float64() < 0.45
	case ArchPBE:
		r := rng.Float64()
		switch {
		case r < 0.16:
			s.PBEIter = 100
		case r < 0.25:
			s.PBEIter = [3]int{1, 20, 500}[rng.Intn(3)]
		default:
			s.PBEIter = [4]int{1000, 4096, 10000, 65536}[rng.Intn(4)]
		}
		s.SaltConst = rng.Float64() < 0.25
	case ArchKey:
		s.KeyConst = rng.Float64() < 0.05
		s.TwoKeys = rng.Float64() < 0.4
	case ArchMixed:
		pickCipher()
		s.DigestAlg = "SHA-256"
		if rng.Float64() < 0.3 {
			s.DigestAlg = "MD5"
		}
	}
	return s
}

// ---------------------------------------------------------------------------
// Commit-kind application (spec transitions)
// ---------------------------------------------------------------------------

// apply mutates the spec according to the commit kind and returns a commit
// message plus the kind that was actually applied: kinds that are
// inapplicable to the current spec (e.g. a fix on an already-secure file)
// degrade to a refactor/unrelated change so the history never stalls, and
// the returned kind reflects that.
func (s *FileSpec) apply(rng *rand.Rand, kind CommitKind) (string, CommitKind) {
	switch kind {
	case KindRefactor:
		s.NameSeed++
		return pick(rng, []string{
			"Rename internals for clarity",
			"Clean up method naming",
			"Refactor: no functional change",
			"Polish identifier names",
		}), KindRefactor
	case KindUnrelated:
		s.DecoySeed++
		return pick(rng, []string{
			"Bump buffer size",
			"Update description strings",
			"Adjust helper constants",
			"Minor housekeeping",
		}), KindUnrelated
	case KindAdd:
		if msg, ok := s.applyGrow(rng); ok {
			return msg, KindAdd
		}
		s.NameSeed++
		return "Simplify helper structure", KindRefactor
	case KindRemove:
		if msg, ok := s.applyShrink(); ok {
			return msg, KindRemove
		}
		s.DecoySeed++
		return "Drop unused constant", KindUnrelated
	case KindFix:
		if msg, ok := s.applyFix(rng); ok {
			return msg, KindFix
		}
		s.NameSeed++
		return "Tidy up crypto helper", KindRefactor
	case KindBug:
		if msg, ok := s.applyBug(rng); ok {
			return msg, KindBug
		}
		s.DecoySeed++
		return "Rework constants", KindUnrelated
	}
	return "", kind
}

func (s *FileSpec) applyGrow(rng *rand.Rand) (string, bool) {
	switch s.Arch {
	case ArchEnc, ArchMixed:
		if !s.TwoCiphers {
			s.TwoCiphers = true
			return "Add decryption support", true
		}
		if !s.HasMac && rng.Float64() < 0.5 {
			s.HasMac = true
			return "Add HMAC authentication", true
		}
	case ArchDigest:
		if !s.TwoDigests {
			s.TwoDigests = true
			return "Add secondary checksum digest", true
		}
	case ArchToken:
		if !s.ExtraRandom {
			s.ExtraRandom = true
			return "Add session nonce generator", true
		}
	case ArchKey:
		if !s.TwoKeys {
			s.TwoKeys = true
			return "Add MAC key slot", true
		}
	}
	return "", false
}

func (s *FileSpec) applyShrink() (string, bool) {
	switch s.Arch {
	case ArchEnc, ArchMixed:
		if s.HasMac && !s.RSAKeyExchange {
			s.HasMac = false
			return "Remove unused MAC path", true
		}
		if s.TwoCiphers {
			s.TwoCiphers = false
			return "Remove legacy decryption path", true
		}
	case ArchDigest:
		if s.TwoDigests {
			s.TwoDigests = false
			return "Remove redundant checksum digest", true
		}
	case ArchToken:
		if s.ExtraRandom {
			s.ExtraRandom = false
			return "Drop session nonce generator", true
		}
	case ArchKey:
		if s.TwoKeys {
			s.TwoKeys = false
			return "Remove MAC key slot", true
		}
	}
	return "", false
}

// applyFix applies one applicable security fix, mirroring the fix families
// the paper mined from GitHub (Figure 8 and §6.3).
func (s *FileSpec) applyFix(rng *rand.Rand) (string, bool) {
	type fix struct {
		ok  bool
		msg string
		do  func()
	}
	ecb := strings.HasPrefix(s.Transform, "AES") &&
		(!strings.Contains(s.Transform, "/") || strings.Contains(s.Transform, "/ECB"))
	des := strings.HasPrefix(s.Transform, "DES") && !strings.HasPrefix(s.Transform, "DESede")
	cbcVariants := []string{"AES/CBC/PKCS5Padding", "AES/CBC/PKCS7Padding", "AES/CBC/ISO10126Padding"}
	fixes := []fix{
		{ecb && rng.Float64() < 0.5, "Use CBC mode instead of ECB", func() {
			s.Transform = cbcVariants[rng.Intn(len(cbcVariants))]
			s.UseIV = true
		}},
		{ecb, "Switch AES to authenticated GCM mode", func() {
			s.Transform = "AES/GCM/NoPadding"
			s.UseIV = true
		}},
		{des, "Replace broken DES with AES", func() {
			s.Transform = cbcVariants[rng.Intn(len(cbcVariants))]
			s.UseIV = true
		}},
		{s.IVConst, "Use a random IV per message", func() { s.IVConst = false }},
		{s.KeyConst, "Stop hard-coding the secret key", func() { s.KeyConst = false }},
		{(s.Arch == ArchEnc || s.Arch == ArchMixed) && s.Provider == "" &&
			s.Transform != "" && rng.Float64() < 0.18,
			"Use the BouncyCastle provider", func() { s.Provider = "BC" }},
		{s.RSAKeyExchange && !s.HasMac, "Add integrity check after key exchange",
			func() { s.HasMac = true }},
		{WeakDigest(s.DigestAlg), "Upgrade hash to SHA-256", func() { s.DigestAlg = "SHA-256" }},
		// Pinning an algorithm replaces the constructor expression; a seeded
		// constructor is a different defect with its own fix below.
		{s.RandomAlg == "" && !s.CtorSeed && s.Arch == ArchToken && rng.Float64() < 0.35,
			"Pin SecureRandom to SHA1PRNG", func() { s.RandomAlg = "SHA1PRNG" }},
		{s.RandomAlg == "NativePRNG", "Use SHA1PRNG for portability",
			func() { s.RandomAlg = "SHA1PRNG" }},
		{s.RandomAlg == "STRONG", "Avoid blocking getInstanceStrong",
			func() { s.RandomAlg = "" }},
		{s.CtorSeed, "Let SecureRandom self-seed", func() { s.CtorSeed = false }},
		{s.SeedConst, "Remove static PRNG seed", func() { s.SeedConst = false }},
		{s.PBEIter > 0 && s.PBEIter < 1000, "Raise PBE iteration count", func() { s.PBEIter = 10000 }},
		{s.SaltConst, "Randomize the PBE salt", func() { s.SaltConst = false }},
	}
	var applicable []fix
	for _, f := range fixes {
		if f.ok {
			applicable = append(applicable, f)
		}
	}
	if len(applicable) == 0 {
		return "", false
	}
	chosen := applicable[rng.Intn(len(applicable))]
	chosen.do()
	return chosen.msg, true
}

// applyBug introduces a vulnerability (the rare reverse direction; the
// paper found fixes outnumber buggy changes by more than 4:1).
func (s *FileSpec) applyBug(rng *rand.Rand) (string, bool) {
	type bug struct {
		ok  bool
		msg string
		do  func()
	}
	bugs := []bug{
		{s.Arch == ArchEnc && strings.Contains(s.Transform, "CBC") && rng.Float64() < 0.3,
			"Simplify cipher setup", func() {
				s.Transform = "AES"
				s.UseIV = false
				s.IVConst = false
			}},
		{s.DigestAlg == "SHA-256" && rng.Float64() < 0.35,
			"Use faster MD5 hash", func() { s.DigestAlg = "MD5" }},
		{s.Arch == ArchToken && !s.SeedConst && !s.CtorSeed && rng.Float64() < 0.25,
			"Seed PRNG for reproducible tests", func() { s.SeedConst = true }},
		{s.PBEIter >= 1000 && rng.Float64() < 0.35, "Speed up key derivation", func() { s.PBEIter = 100 }},
		{s.Arch == ArchPBE && !s.SaltConst && rng.Float64() < 0.35, "Inline fixed salt", func() { s.SaltConst = true }},
		{(s.Arch == ArchEnc || s.Arch == ArchKey) && !s.KeyConst && rng.Float64() < 0.25,
			"Embed default key for tests", func() { s.KeyConst = true }},
		{s.UseIV && !s.IVConst && rng.Float64() < 0.25,
			"Use fixed IV to simplify protocol", func() { s.IVConst = true }},
	}
	var applicable []bug
	for _, b := range bugs {
		if b.ok {
			applicable = append(applicable, b)
		}
	}
	if len(applicable) == 0 {
		return "", false
	}
	chosen := applicable[rng.Intn(len(applicable))]
	chosen.do()
	return chosen.msg, true
}

// WeakDigest reports whether the digest algorithm has known collisions.
func WeakDigest(alg string) bool {
	switch strings.ToUpper(alg) {
	case "MD2", "MD4", "MD5", "SHA1", "SHA-1", "SHA":
		return true
	}
	return false
}

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

func fmtInt(i int) string { return fmt.Sprintf("%d", i) }
