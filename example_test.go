package diffcode_test

import (
	"fmt"

	diffcode "repro"
)

// The paper's Figure 2 change: switching AES from implicit ECB to CBC with
// an initialization vector.
const exOld = `
class AESCipher {
    Cipher enc;
    final String algorithm = "AES";
    protected void setKey(Secret key) {
        try {
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key);
        } catch (Exception e) {}
    }
}`

const exNew = `
class AESCipher {
    Cipher enc;
    final String algorithm = "AES/CBC/PKCS5Padding";
    protected void setKeyAndIV(Secret key, String iv) {
        try {
            IvParameterSpec ivSpec = new IvParameterSpec(Hex.decodeHex(iv.toCharArray()));
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key, ivSpec);
        } catch (Exception e) {}
    }
}`

// ExampleDiffSources derives the usage change of the paper's Figure 2(d).
func ExampleDiffSources() {
	changes := diffcode.DiffSources(exOld, exNew, diffcode.Cipher, diffcode.Options{})
	kept, _ := diffcode.Filter(changes)
	fmt.Print(kept[0].String())
	// Output:
	// - Cipher getInstance arg1:"AES"
	// + Cipher getInstance arg1:"AES/CBC/PKCS5Padding"
	// + Cipher init arg3:IvParameterSpec
}

// ExampleCheckSource flags the vulnerable version with the elicited rules.
func ExampleCheckSource() {
	vs, err := diffcode.CheckSource(exOld, diffcode.RuleContext{}, diffcode.Options{})
	if err != nil {
		panic(err)
	}
	for _, v := range vs {
		fmt.Println(v.Rule.ID, "-", v.Rule.Description)
	}
	// Output:
	// R5 - Use the BouncyCastle provider for Cipher
	// R7 - Do not use Cipher in AES/ECB mode
}

// ExampleParseRule compiles a custom rule in the paper's notation.
func ExampleParseRule() {
	rule, err := diffcode.ParseRule("ORG1", "Ban RC4",
		`Cipher : getInstance(X) ∧ X=RC4`)
	if err != nil {
		panic(err)
	}
	res, err := diffcode.AnalyzeUsages(`
class T { void m() throws Exception { Cipher c = Cipher.getInstance("RC4"); } }`,
		diffcode.Options{})
	if err != nil {
		panic(err)
	}
	matched, _ := rule.Matches(res, diffcode.RuleContext{})
	fmt.Println(matched)
	// Output: true
}

// ExampleSuggestRule builds a checkable rule from a mined fix.
func ExampleSuggestRule() {
	changes := diffcode.DiffSources(exOld, exNew, diffcode.Cipher, diffcode.Options{})
	kept, _ := diffcode.Filter(changes)
	rule := diffcode.SuggestRule(kept[0])
	oldRes, err := diffcode.AnalyzeUsages(exOld, diffcode.Options{})
	if err != nil {
		panic(err)
	}
	newRes, err := diffcode.AnalyzeUsages(exNew, diffcode.Options{})
	if err != nil {
		panic(err)
	}
	oldMatch, _ := rule.Matches(oldRes, diffcode.RuleContext{})
	newMatch, _ := rule.Matches(newRes, diffcode.RuleContext{})
	fmt.Println(oldMatch, newMatch)
	// Output: true false
}
