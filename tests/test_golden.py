"""Byte-identity of the descent-sum families: sha256 of the `families` JSON.

The digests were recorded from the enumerating implementation, so any change
to how the descent sums are built must reproduce every numerator term,
coefficient and denominator factor exactly.  The lmn cases with large n
include formal forms (a denominator factor with Y-exponent <= 0).
"""

import hashlib

import pytest
from click.testing import CliRunner

from zetaforge.cli import main

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
}

runner = CliRunner()


@pytest.mark.parametrize("family_id, d", sorted(DIGESTS))
def test_families_json_digest(family_id, d):
    result = runner.invoke(main, ["families", "--family", family_id, "--d", str(d)])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == DIGESTS[family_id, d]
