"""Byte-identity of CLI output: sha256 of the JSON (or refusal) it prints.

`DIGESTS` pins the `families` JSON of the descent-sum families.  The digests
were recorded from the implementation that summed over every permutation of
S_n, so any change to how the descent sums are built must reproduce every
numerator term, coefficient and denominator factor exactly.  They run up to
the largest sizes the family guards admit (heisenberg:8, lmn with n = 8, 9).
The lmn cases with large n include formal forms (a denominator factor with
Y-exponent <= 0).

`COMMANDS` pins `decompose`, `euler`, `dirichlet` and `abscissa` output,
recorded from the implementation that factored f mod p completely and
specialised a bivariate product of W(X^f, Y^f).  The cases cover split,
inert and ramified primes (e = 2, 3, 4 and e = f = 2), primes the index test
refuses (with and without a `--type` override), a formal form, and `bk`.
The two abelian cases at d = 4 and the two `free:2:1` runs at d = 3 and 4
pin the refusal of the Z^n families at d >= 2 (exit 1): the free nilpotent
ring on one generator is Z.  Three larger `dirichlet` runs (bk at d = 4 up
to 2000, heisenberg:5 at d = 3, lmn:2:3 at d = 2) were recorded from the
implementation that specialised every local factor in full before expanding
it, so cutting the factors at the expanded order must not move a digit.  All
of these pins were recorded from implementations that specialised W prime by
prime, before the global expansion built one series per decomposition type.
The `dirichlet` runs over Q(sqrt -5) and x^5 - x - 1 were recorded from the
implementation that ran the full decomposition type at every prime; they
pin the primes dividing the discriminant (2, 5 and 19, 151 in a maximal
order) against the residue degrees read at every other prime.  The
`abelian:3` run over Q to 3000 (every b_n nonzero) and the `heisenberg:2`
run over Q(i) to 100000 (b_n nonzero only where p | n implies p^2 | n) were
recorded from the implementation that multiplied b_{p^k} into every
multiple of p^k, one stride at a time, for every prime up to the limit,
before the coefficients were built on their support.  The three
`decompose` runs at p = 7 (Q(zeta_5), inert; Q(cbrt 2), inert; and the
quintic x^5 - x - 1, type [2, 3]) were recorded from the implementation
that ran the full decomposition type at every prime: at the first two the
parity of the number of factors now decides, and the third runs the
general loop, one gcd, before it does.

`EVERY_PRIME` keeps what the `free:2:1` runs printed before they were
refused, with W = 1/(1 - Y), the Dedekind zeta function, whose b_p counts
the primes of degree 1 above p, patched into the library.  They were
recorded from the implementation that decomposed every prime up to the
limit for every family: they pin the residue degrees at every prime, where
the `dirichlet` runs above, whose W has no t^1 term, read no type above the
square root of the limit.
"""

import hashlib
import json

import pytest

from cli_runner import run
from zetaforge import NumberField, dirichlet, global_coefficients, heisenberg
from zetaforge.laurent import EulerForm

DIGESTS = {
    ("heisenberg:1", 1): "abcc8c9d6100f2cb223f8e8dfa7c0042fd1a22ae2dea7202d476e13d9d58b844",
    ("heisenberg:1", 2): "df60f8f8bcc29858cb88c8a7e0843bbea573290e358450bc0955d511ba199358",
    ("heisenberg:2", 1): "841b7f76dc3d3699fc62e057ea90cdd1f9bc4175ca1909da471a2fd9dce91a89",
    ("heisenberg:2", 2): "e919c30a3a5262443c0afaebd0da67979f0577285f6a50130f3c8f40fe1e903b",
    ("heisenberg:3", 1): "d9a070deaf4bef080d7c61ec993b0600c2782729d4216256beea405be02cd688",
    ("heisenberg:3", 2): "a46649cb7ab52aa475a2c0e2c041e1504301b58d866b506cd23887511b7f5f7c",
    ("heisenberg:4", 1): "2e46ec36edbed594886ba8c75cca0ef65765f1e368a6b4f6fbb084e490820403",
    ("heisenberg:4", 2): "cd693fb0285b8107f0d6290eb1900920da9cd597177fcccd93116d6b4573479d",
    ("heisenberg:5", 1): "35e716ace9bbc14a8f91291149c5cee95030cb5be582458e145ee0d9ba6fe060",
    ("heisenberg:5", 2): "e322531ad56a3ec4192d034fbf0d0b4c5cfb091925927dc75e8142608f6c88b7",
    ("heisenberg:6", 1): "613c245028eb0332a3cd760c70021ef923f5abe9ecfbbf037bcbba16a4045dc0",
    ("heisenberg:6", 2): "889cf09e9ba31bcec67d9e2f2a660b29642c0713aed50628592d9e66c172ba51",
    ("heisenberg:7", 1): "f2f5d324eb9d74b071d5e41814a0f0ddb5a79090eb481b3567ad55606fd7d995",
    ("heisenberg:7", 2): "3b0570057a816f026ba5d46bd5127865a547693de7d496eb1216c61134de1fde",
    ("lmn:1:2", 1): "3b2b10c5b93d20251e2455964dd263b194d9587846f8ab3226e5b7b0ecd933ff",
    ("lmn:1:2", 2): "f2d1217aacee0688df8c226b3d76d9c7d54ac625a0907b6023cea26605a5d5a9",
    ("lmn:2:2", 1): "dd97de1fd12b88693386b4c30c2e74c4dd8f89066da5d4d3c8a66361b045c084",
    ("lmn:2:2", 2): "0e9800bae5b4f4a82da2461ef7a5f8ec913f1ae7ba02c0c6329e21f6815f6f48",
    ("lmn:3:2", 1): "ffff6e21ba1f29b902e98841ed94e1a95b221b90921ba8954a079f7973aa9745",
    ("lmn:3:2", 2): "2583600a350edeab64ae4b686c647499e1b89ea875dc9eec4e6636535d0850fa",
    ("lmn:4:2", 1): "579def653c8656fce6068d500d5d68bfb607b0cb9142cef72ed0a783267be566",
    ("lmn:4:2", 2): "4ade06fd075e9515ad8164e24352c59aa4109401b245dae858cbc72a3d4ba89a",
    ("lmn:5:2", 1): "b45f487eb9939ae514688d075db9812e763ac1b62723c818f4bee60eb866078e",
    ("lmn:5:2", 2): "04e1235bde33b198082f71b4634314a11114fb6a38ea6d68790a8e42d722abe3",
    ("lmn:6:2", 1): "92713b2c8c573b18a3c7512a19b4540d983d774ef0183bda11429e1bb12bbb57",
    ("lmn:6:2", 2): "c792dc2d764d68e016e1760bdd30098692a8398bdfec03444c477e92b8df6fb4",
    ("lmn:1:3", 1): "79a5beff6d0edacb8eead17e8c908a3bc041ea6fd6e3c1c3d2b8834830b5fd1b",
    ("lmn:1:3", 2): "86e327821b6743f9f3b59c12d4397a56633354a4128589f6d1b50a9f335e725d",
    ("lmn:2:3", 1): "07b20fc30a3138098e8deded05c1181412a413c144e7df1e59cd2139b157803f",
    ("lmn:2:3", 2): "f8b4f8fd6252ca295a05fb371f351f3a85af63dbc8470be55bef6221728bcdaf",
    ("lmn:3:3", 1): "55a1c4de9da10504fa04d8dfc8bdd06aa8b5b94b1679f65189835056c3bf9e74",
    ("lmn:3:3", 2): "ce6e9665a789c65c395af0a77ebd72b84520151cf81c203e86c18fd52a592848",
    ("lmn:4:3", 1): "6b09ee37a3877faf10277af79622bf21b750f9f05ed4bffa9314efeb3f4efa64",
    ("lmn:4:3", 2): "07805bddf844178d39b1f97fec095633dd990ed4f317a8adeefce6b8a88785f7",
    ("lmn:5:3", 1): "f34d71ecf847abab87f17f0fb05b8b1d0f442a3898dddd9a7ffe335a4adb53b3",
    ("lmn:5:3", 2): "c90ffa17c70863e757576d001ecc1b0f8d8f1ef5b19f5b0404cd0ba13911f3cb",
    ("lmn:1:4", 1): "ac820a5f19feaf8fe90b8e003f329a0ce14fbe868aa0c837ee6105d137ee9449",
    ("lmn:1:4", 2): "3d60504e65d0073561e81e1205efc8af4f4e4b9331e6d841e55199954477a04d",
    ("lmn:2:4", 1): "8ac5b31435e78cf3b2c0d180967c858712e35abc7f9bad0ea096117ddc1c015c",
    ("lmn:2:4", 2): "894ed0124de6e079bc5bb227aa79f6215176d2c2a6b760b3aebcd6fedd667a30",
    ("lmn:3:4", 1): "d1d0883426d6f0414101e3cd39f2be98933b970ea1f8374524e4b7b3d194a212",
    ("lmn:3:4", 2): "e02c943d40aa73e40e5093eaf97fe567d2f48fda3145f1fe92a9fd4b07035695",
    ("lmn:4:4", 1): "dade709f446e16e8582a45b957722ffc871b80ae89faaf3c9681459243fc5d95",
    ("lmn:4:4", 2): "4fe15789efdd8c354b16f914411dab5707d0d64c8e6bdf4f937b46b8616ac003",
    ("lmn:1:5", 1): "8d39a17272128c4f12628f213074a9728acde8caeca0cc991a82901477e060de",
    ("lmn:1:5", 2): "12aa0411d686cbffecb9c238b81a323f62ee7ac4094179d4bc4ec2fd1ce0dbb7",
    ("lmn:2:5", 1): "e05a9e3a15848ed7463a07e5dd497b7f18005d0b039a57398b5d758e9582f351",
    ("lmn:2:5", 2): "99c18a5e32b917a26f8f8212af996f6e6a0cac6e78088c16d1164aef1f239286",
    ("lmn:3:5", 1): "a884e75ef31210d707dc796f2bb8abc60bb7287b8a40efc88f89b3741aad8d75",
    ("lmn:3:5", 2): "841da74eb3c9112620e9e04c51fb66b1f4ad382241d2a58d297e1b98d91a99f5",
    ("lmn:1:6", 1): "5b16e08c378ad2e616d76929accaf28a3134ccd45c2ad9f063c28f1535cac80a",
    ("lmn:1:6", 2): "34ccc415d97815320bb2b1c03d0b6d4df3801f6367b79b8562e82f66151e807d",
    ("lmn:2:6", 1): "2b39700277b54fe53f248c893d4f4e83ee281f58fc8ac12468ba4ccddc217071",
    ("lmn:2:6", 2): "77d4f6b4cf9818decc05d3364ed9a23523b5d867fd2567db36d8cfa268e22ecc",
    ("lmn:1:7", 1): "4d910a66395bb790e0ebeb7df44518ee1bf8a1f97b21c8a1ff6f603baa79d663",
    ("lmn:1:7", 2): "0bbce2e553dfed7107c425ffacc331556d24d2693d6c32f6f4af95e7b721bbc8",
    ("heisenberg:8", 1): "2c712616465a1e854e34159da4356cab157b9e9465e069d96c89b365e80bfd43",
    ("heisenberg:8", 2): "2a70bb81056d6cce100d81c8dd550159758b4a1981c5043af50f897d5308484c",
    ("lmn:1:8", 1): "67ce1bac6beb74d2b37dcdadd22f3d09a1983904b1220b9f6ee776d32df3b6fe",
    ("lmn:1:8", 2): "6e6e6bca22d8f1f2b02cce4cca6194f3abe0548baaf43588643d38e126baabcc",
    ("lmn:2:8", 1): "27b129ddda46a4db44678f3742356b272eedc0a5e7424808e85a25db85bece9c",
    ("lmn:2:8", 2): "c06597f6beaf8988e5e7d55f4d9a7f991cdadfda5f4a47ad0539683147e5bed1",
    ("lmn:1:9", 1): "9bd662704104e42049ecf3d213bb11b647ca34fa7829069bc35d37c8bbb13796",
    ("lmn:1:9", 2): "f6c9c7315a5972be84931ee9ce5f6906de6c0dfd0e81d9c4a53bc145863c8f5c",
}

# (command line, exit code, sha256 of everything it prints)
COMMANDS = [
    ("decompose --minpoly 1,0,1 --p 2", 0, "0fc9e196b2485eccb66047e1f7aae4cbad6f6f5e10822742d5c7b6d7fcb0ead4"),
    ("decompose --minpoly 1,0,1 --p 3", 0, "90f5663986feb248d960b305dd91fec695b41ca07e0874a49fd393575374bd31"),
    ("decompose --minpoly 1,0,1 --p 5", 0, "19e93ae70caf45a7d7a5cb208fa51fbf9f7aae570be214f3096a98b07e169d40"),
    ("decompose --minpoly -2,0,0,1 --p 3", 0, "37176c768f0433549b7f9fbc8f37a966e95cb6ff56979bba58fd26f7a5b89273"),
    ("decompose --minpoly -2,0,0,1 --p 5", 0, "90a3c3d85eab16db42d0134df47256c1dac3f26eb80df8834bdd3d068a5dd4b0"),
    ("decompose --minpoly -2,0,0,1 --p 31", 0, "7b1a6185f84470ecb00cb590ebfd38527599304c569222f7485cf71df70b5126"),
    ("decompose --minpoly 1,1,0,1 --p 31", 0, "020b790122c1a394e919d23a6463c41a7e420b1e3d329d767d45f1a30ccbc789"),
    ("decompose --minpoly 1,1,1,1,1 --p 2", 0, "d26aeb7dcc6f0cab0a15eba4aec83c8a53dfae353a78e9fd45c032ff5464a114"),
    ("decompose --minpoly 1,1,1,1,1 --p 5", 0, "1403f35219911e001f54c8d67664a7cec273ec4d2c722d078bc5d08b638198bf"),
    ("decompose --minpoly 1,1,1,1,1 --p 11", 0, "9f495d5eeb6e777fe4a6f574ce5d2634a4d0051af39fef441f514f670c9fdfbc"),
    ("decompose --minpoly 1,1,1,1,1 --p 19", 0, "bbafdad9716d3ff9cd57338d3814306a1169575bed63f2df8257e34ed81eaaea"),
    ("decompose --minpoly 3,0,1,0,1 --p 2", 0, "7e44ade6e22f151c84cf06c48705eec988cd5f1a088fa9d75449d2a7489be46f"),
    ("decompose --minpoly 3,0,1 --p 2", 1, "dd9533bd050a6daff26f31290fe1f92aaffdbb09cdc13db11d2eaa1f266b5e3d"),
    ("decompose --minpoly 5,0,1 --p 2", 0, "0fc9e196b2485eccb66047e1f7aae4cbad6f6f5e10822742d5c7b6d7fcb0ead4"),
    ("decompose --minpoly -5,0,1 --p 2", 1, "dd9533bd050a6daff26f31290fe1f92aaffdbb09cdc13db11d2eaa1f266b5e3d"),
    ("decompose --minpoly -5,0,1 --p 5", 0, "70d6aa6ffa6f0662eb2fc83f4882831b37a26de302e4e71bfab0bfdcc2ff47fe"),
    ("decompose --minpoly 0,1 --p 997", 0, "396593fe6532d1e1e1aafae4b5fbac126f0f310b60503aebe05a58b18c4e0885"),
    ("decompose --minpoly 1,1,1,1,1 --p 7", 0, "3745126e2b494b5a365efc926400ecd071879e9bf599b3fcfcac0b610e37895d"),
    ("decompose --minpoly -2,0,0,1 --p 7", 0, "34a2db82c32629148dcd35b427c7fcb9a899a420b614cf8240756b091afb6cbf"),
    ("decompose --minpoly -1,-1,0,0,0,1 --p 7", 0, "6199db057fba16abd75b18ed1545fad6eda7c94c3ca7fbda76921ffc8c846806"),
    ("euler --family heisenberg:1 --d 2 --minpoly 1,0,1 --p 2", 0, "8c467109637e9f16f2617e53ce750bd7bf935c0c6ba3b97401fb4420ed4a7711"),
    ("euler --family heisenberg:1 --d 2 --minpoly 1,0,1 --p 3", 0, "ace601fecdc1c13923905ea08e80d3cc1fd6c6f2c14e045764f3f1771610487b"),
    ("euler --family heisenberg:2 --d 2 --minpoly 1,0,1 --p 5", 0, "1337e7d626e9cf29939154c72c4b868c2aedbf42417626b681564698391df4a6"),
    ("euler --family heisenberg:3 --d 3 --minpoly -2,0,0,1 --p 5", 0, "c14bc52f4ab68a3dc9704dd4ffd1c045fb85e63218065cfa1aa75775a33036cf"),
    ("euler --family lmn:2:3 --d 3 --minpoly 1,1,0,1 --p 31", 0, "82ab257c9621b690b1544cfb95bd4b6327207319247c453d65cc87aa80f1039a"),
    ("euler --family lmn:1:2 --d 4 --minpoly 1,1,1,1,1 --p 19", 0, "fb672311a7b832bf836c1bf8c4121507cc14f14bba9ccc8a18ab62df80ee60c0"),
    ("euler --family heisenberg:2 --d 4 --minpoly 3,0,1,0,1 --p 2", 0, "a6519cbf004ababf6461684becc2c1653cb6c693ed665f3f6f121f91c36cb38b"),
    ("euler --family abelian:3 --d 4 --minpoly 1,1,1,1,1 --p 5", 1, "87ec7dfc68154e816bd530d019615021c30c9175b84c5383079494e40f54ea53"),
    ("euler --family free:2:3 --d 2 --minpoly 1,0,1 --p 7", 0, "0b9d8abce2c61c3586fe8470105c2ccd11ff8b7a529428bfabc58dbf68756bd4"),
    ("euler --family maxclass:4 --d 3 --minpoly -2,0,0,1 --p 3", 0, "2a04ca074c6d2edcfe4689be6d670a0503355d4837bdf6ee3a67526936e3172f"),
    ("euler --family f4 --d 2 --minpoly 1,0,1 --p 13", 0, "61e7e74e5dda89959005f7234405b2f5135cbcae3b7090b680bceb38183aa7c8"),
    ("euler --family q5 --d 1 --minpoly 0,1 --p 7", 0, "e1e897b4fd4f6ebfd782ed5f17eb506dcad06a0919337ecd1841908333758f7a"),
    ("euler --family bk --d 1 --minpoly 0,1 --p 2", 0, "c1d026bd6c3437cfee0be3cae4de8c91f6171f749c643ecd439f8bbe55323157"),
    ("euler --family bk --d 2 --minpoly 1,0,1 --p 3", 0, "4087455ca2f49b336fff6e6a1bdfdd4cc8a69837a27dfd9593288fe1414aa1dd"),
    ("euler --family bk --d 2 --minpoly 1,0,1 --p 5", 0, "a04b400e1f6381ea3151e006afb92ca0ef4860e88f6cab8f563336e2e259afcc"),
    ("euler --family bk --d 2 --minpoly 1,0,1 --p 2", 0, "ab1ec4d28f37f0c829cd0ad8eb0a751c1a127e3b3796a17e60387eda7e756c11"),
    ("euler --family heisenberg:1 --d 2 --minpoly 3,0,1 --p 2", 1, "dd9533bd050a6daff26f31290fe1f92aaffdbb09cdc13db11d2eaa1f266b5e3d"),
    ("euler --family heisenberg:1 --d 2 --minpoly 3,0,1 --p 2 --type 2,1", 0, "8c467109637e9f16f2617e53ce750bd7bf935c0c6ba3b97401fb4420ed4a7711"),
    ("euler --family heisenberg:2 --d 2 --minpoly 3,0,1 --p 2 --type 1,2", 0, "2abcaebe61ae2bd11a27608dcc250b9dc837fbc0e09b2f5073c33886d2896d23"),
    ("euler --family bk --d 2 --minpoly 3,0,1 --p 2 --type 1,1;1,1", 0, "dfbc0529952e067cd0363cd5e5ef3d1448c4a6fef9919f90f0e6aa9a704271de"),
    ("euler --family lmn:4:2 --d 1 --minpoly 0,1 --p 2", 1, "22246b182270ec263949ed8839c32ec1f69a478f0be6783fcfd966a09b5b0d79"),
    ("dirichlet --family heisenberg:1 --d 2 --minpoly 1,0,1 --n 60", 0, "aa892209b15a0a2eedbb7f4d12770fcbfe8c79ffcd602d7e2154ec722d05c1c2"),
    ("dirichlet --family heisenberg:2 --d 1 --minpoly 0,1 --n 40", 0, "83519f1ce31bc1f49bbb2268a2dfdbbfa9ca28309ae1b18a822b3e60379f757b"),
    ("dirichlet --family heisenberg:2 --d 3 --minpoly -2,0,0,1 --n 40", 0, "5506239907bb4ca2c38b5667747b878c69acf1053056f6445133cbaabe353ff2"),
    ("dirichlet --family lmn:1:2 --d 3 --minpoly 1,1,0,1 --n 40", 0, "20f31b6691fbdfd371e4bcedc2e72e554743c69dcd9fb075f5d7b653fdaf109d"),
    ("dirichlet --family abelian:2 --d 4 --minpoly 1,1,1,1,1 --n 60", 1, "22aea4f903e851a42edeb0b7abea0769b212f3f6fb422c14f84d2f8e2af166fc"),
    ("dirichlet --family free:2:2 --d 2 --minpoly 1,0,1 --n 60", 0, "aa892209b15a0a2eedbb7f4d12770fcbfe8c79ffcd602d7e2154ec722d05c1c2"),
    ("dirichlet --family maxclass:3 --d 4 --minpoly 3,0,1,0,1 --n 40", 0, "7d7360f03731e758a2689d81eaecb80b5e883e9b22ef199e05f92ed965d0565a"),
    ("dirichlet --family q5 --d 2 --minpoly 1,0,1 --n 40", 0, "a32a52c17daec8ef6a76a2563d381c8f5dbe56e0b3faf450f499944ba29a74da"),
    ("dirichlet --family bk --d 2 --minpoly 1,0,1 --n 20", 0, "46bcc589e7cc8745c8bed54f4f0c244e02a2a1d0f6d9257ecb1cbe6d712249ea"),
    ("dirichlet --family heisenberg:1 --d 2 --minpoly 3,0,1 --n 10", 1, "e409d699824eee056315fae5f21512a108fa1c233bb74204781b44c14d16335a"),
    ("dirichlet --family lmn:4:2 --d 1 --minpoly 0,1 --n 10", 1, "22246b182270ec263949ed8839c32ec1f69a478f0be6783fcfd966a09b5b0d79"),
    ("dirichlet --family bk --d 4 --minpoly 1,1,1,1,1 --n 2000", 0, "befd7dd353a9a2fb53087723bcc4f905277b6aa3503c283016e442b9c1e1ac72"),
    ("dirichlet --family heisenberg:5 --d 3 --minpoly -2,0,0,1 --n 300", 0, "39681aebb72e12a97ae22319413b0641569d6a0d9993839ec4b8b67fffeb912b"),
    ("dirichlet --family lmn:2:3 --d 2 --minpoly 1,0,1 --n 1000", 0, "6116c3115092b0a32b82fb43d6a3142b430615137c7368eb77996d93822589ed"),
    ("dirichlet --family heisenberg:2 --d 2 --minpoly 5,0,1 --n 1000", 0, "16ad893735f3b7d24cec6981ae61251995bb24a89301d33f800fb8894be24a57"),
    ("dirichlet --family heisenberg:1 --d 5 --minpoly -1,-1,0,0,0,1 --n 500", 0, "56c3021a2300c1050f7c73aa9bfe32952812e479b3a05638c7a22a2ccb1012a3"),
    ("dirichlet --family abelian:3 --d 1 --minpoly 0,1 --n 3000", 0, "2f5a59bfc1f7d7fb1cce9a8570dd6dd9f06037ddaab8eb67cbc5963114015de4"),
    ("dirichlet --family heisenberg:2 --d 2 --minpoly 1,0,1 --n 100000", 0, "333a00192bb6649da582a1614c948d9ab5a62d5e32110fb45db1851352140a65"),
    ("dirichlet --family free:2:1 --d 3 --minpoly -2,0,0,1 --n 2000", 1, "e2ddba575a9bc76bd38192d2c93effe5d312b085b4a5a787c4ac42144cf3ca11"),
    ("dirichlet --family free:2:1 --d 4 --minpoly 1,1,1,1,1 --n 1000", 1, "5fd9848849755190ed262d482b20ea9ad739d8124e77c2a553a556cb66719714"),
    ("abscissa --family heisenberg:3 --d 2", 0, "9e51535e59acac4b63a68d78d45b35071fdd71850b322cb59a99ac917664db49"),
    ("abscissa --family lmn:2:3 --d 2", 0, "d1cde62623d870f7396c1a3c44e4e09742f7b316122aad34fc3775f211411ed7"),
    ("abscissa --family q5 --d 2", 0, "b3e84ebd0560aecd9d38386c36332fdbe681e24aef034442df9b8e302bfd198b"),
    ("abscissa --family bk --d 1", 0, "061990ba659ce4997320850dc79398ba0f9cf03f9e679c5fd9d74e0cc51342e7"),
    ("abscissa --family abelian:3", 0, "240f73c40ea331a5e66d3f4d717d41327ab322c110224613c60d0319a151c107"),
    ("abscissa --family lmn:3:7 --d 4", 0, "9806eebbbf91187f78f3a9ba8669b55c6a87a944efa393d4b800ea1d9deadeda"),
    ("abscissa --family free:6:6 --d 4", 0, "e67672c9943ae38e314ffecdd53cb5b42960a8817c0671c2a8f36f6d4693f35e"),
]

@pytest.mark.parametrize("family_id, d", sorted(DIGESTS))
def test_families_json_digest(family_id, d):
    result = run("families", "--family", family_id, "--d", str(d))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == DIGESTS[family_id, d]


@pytest.mark.parametrize("command, code, digest", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_command_output_digest(command, code, digest):
    result = run(*command.split())
    assert result.exit_code == code, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


EVERY_PRIME = [
    ((-2, 0, 0, 1), 2000, "66d2a7b42033865beab3dba1ea548e5352fd6e1194f25ed0225086a0ef0294bb"),
    ((1, 1, 1, 1, 1), 1000, "c30748a0af470586d423a55a2716ba71b93d641c6412c9531b4c1a7c5a8d0555"),
]


@pytest.mark.parametrize("minpoly, limit, digest", EVERY_PRIME, ids=["cbrt2", "zeta5"])
def test_dedekind_expansion_digest(monkeypatch, minpoly, limit, digest):
    monkeypatch.setattr(dirichlet, "make_W", lambda family, d: EulerForm.from_denominator([(0, 1)]))
    field = NumberField(minpoly)
    coeffs = global_coefficients(heisenberg(1), field.degree, field, limit)
    payload = {"coefficients": [str(c) for c in coeffs], "schema": "zetaforge/1"}
    output = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert hashlib.sha256(output.encode()).hexdigest() == digest


NUMBER_FIELD_COMMANDS = [c for c in COMMANDS if c[0].split()[0] in ("decompose", "euler", "dirichlet")]


def test_one_warm_session_matches_every_pin():
    # The field caches are cleared before this test only, so each command
    # meets the certificates, discriminants and single-prime degrees
    # (`_certified`, `_field_discriminant`, `_unramified_degrees`) that the
    # earlier ones left, in both orders.
    for command, code, digest in NUMBER_FIELD_COMMANDS + NUMBER_FIELD_COMMANDS[::-1]:
        result = run(*command.split())
        assert result.exit_code == code, (command, result.output)
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest, command
