"""Expected answers for the benchmark's correctness checks, frozen from the
program's output at the commit that added the benchmark.

The project's rule is that speed work changes no output: enumeration order,
class sizes, certificate bytes and CLI stdout stay byte-identical.  So any
mismatch here is a failed operation, never a reason to refreeze.
"""

# class-sweep: EnumeratedClass(4, 5, (-1, 0, 1, 2)).  Digest i is the first
# 16 hex digits of a running SHA-256 over the first 1000 * (i + 1) members,
# each fed as its serialized text followed by its two verdict bits.
CLASS_SWEEP_MEMBERS = 77064
CLASS_SWEEP_FINAL = "28d1ea6de720a667"
CLASS_SWEEP_BLOCKS = (
    "e67e33d034c33db3", "1a456f67fa2f540d", "87c1150264421d18", "1069ade9967be3ff",
    "b89a2297ef50786b", "2f536c0c1373666d", "ce33fb385bde4c3e", "6be77a79575427bf",
    "c726c6503150900f", "04260ecdf4edda80", "ebc347a99a5acff6", "838c6829e374997e",
    "6c4f35a12eee0db8", "bbf5956f28d57bcf", "04d811a972d17c6a", "75d010cc83c14e27",
    "1fc11354428b02e0", "a7a4d8854ea73c61", "d5e3cdcc67469e73", "76ab7a7f3976c0bc",
    "2241d306bbdeafc8", "034f0ba27cc23a59", "84ecbe4af7aa40c4", "98dab42fdc343a4a",
    "88e28ee020733fb9", "e2bb614dba5b5957", "1ce4905c3ceb73e0", "11fad16a9181a81e",
    "ac9b88cadabc7c86", "ade3cef4c1aeb091", "f55d2390c59cfc3e", "4163b5276d0dda58",
    "c86482aeadbfebb1", "37de39a52e2e2b3e", "edb7865baab857cd", "1dfcdcd8400d61fb",
    "8a221496fe1e6d94", "594828098a212abd", "37581635914131aa", "dc76d9197a5c5f7d",
    "8e763252d52bb71c", "99696fb516151d42", "a1720adc5e6d06ff", "2296ac997586dd08",
    "fe49ab18cb6c1df7", "3d623a8cfde73396", "fa93a1e907ed962b", "701b2ab9f381a17e",
    "67a93b06e778d63c", "cc608b754f117211", "20345165ed8a40fb", "56437a250a05baed",
    "ecfbd049e1c74748", "7306a672c0eb1285", "dcfc3655e2c00e24", "81f7d17dc849a198",
    "45c068fea78d6784", "c1583919e327da8b", "a000aedc0611c645", "65a092aa8003c84a",
    "f8203cccc481ec39", "65e03305c6714f09", "6856ff2b3a1e384a", "f4449c47a04ba5ce",
    "15ad8596fa96cc47", "92660c0879a8d531", "25c06d960d7d45e0", "f99a4840a2a13b77",
    "386efdbaf2f60ebe", "fa1b1bdca4dd51e3", "90ec2a7f4da7cc7d", "30df1ca841181537",
    "79b0bd3e5597ba07", "6da0a37955e75001", "4364b900ed2a4f69", "28c52c6fcc31e513",
    "503797ddb94215fc",
)

# cert-pipeline: first 16 hex digits of SHA-256 over each command's stdout,
# with harness-f's inline seconds masked.
STDOUT = {
    "gen-design": "83bed079b69ff833",
    "derive-perm2": "90b08f055412c2d9",
    "harness-perm2": "96a1493fcda24f57",
    "derive-efun2x2": "d3e6ff0f902d48b3",
    "harness-efun2x2": "ae9470cb55f00560",
    "build-hitting-set": "7fff9ccf2a7c3203",
    "verify-hitting-set": "6daf4682008538bb",
    "trivial-table": "cf0bd8fee7244f19",
}

# cert-pipeline decode inputs: (certificate file, circuit text, stdout
# digest).  Every circuit is a member of its certificate's class (at most 5
# nodes on 4 inputs for perm(2), at most 4 nodes on 8 inputs for E(2,2)).
DECODE_MEMBERS = (
    ("perm2.cert", "ninputs 4\ng0 = input 0\ng1 = input 3\ng2 = mul g0 g1\noutput g2\n", "dd7eabc16a19faf5"),
    ("perm2.cert", "ninputs 4\ng0 = input 1\ng1 = input 2\ng2 = mul g0 g1\noutput g2\n", "e8a3e0312e2fdd0c"),
    ("perm2.cert", "ninputs 4\ng0 = input 0\ng1 = input 3\ng2 = mul g0 g1\ng3 = input 1\ng4 = sub g2 g3\noutput g4\n", "41bca1b7d2112197"),
    ("perm2.cert", "ninputs 4\ng0 = input 0\ng1 = input 1\ng2 = add g0 g1\ng3 = input 3\ng4 = mul g2 g3\noutput g4\n", "865a261a3a79f867"),
    ("perm2.cert", "ninputs 4\ng0 = const 1\noutput g0\n", "41bca1b7d2112197"),
    ("perm2.cert", "ninputs 4\ng0 = input 2\ng1 = mul g0 g0\noutput g1\n", "e8a3e0312e2fdd0c"),
    ("perm2.cert", "ninputs 4\ng0 = input 0\ng1 = input 3\ng2 = add g0 g1\noutput g2\n", "e8a3e0312e2fdd0c"),
    ("perm2.cert", "ninputs 4\ng0 = input 0\ng1 = input 1\ng2 = mul g0 g1\ng3 = input 2\ng4 = mul g2 g3\noutput g4\n", "e8a3e0312e2fdd0c"),
    ("perm2.cert", "ninputs 4\ng0 = input 0\ng1 = const -1\ng2 = mul g0 g1\noutput g2\n", "e8a3e0312e2fdd0c"),
    ("perm2.cert", "ninputs 4\ng0 = input 0\ng1 = input 3\ng2 = sub g1 g0\noutput g2\n", "e8a3e0312e2fdd0c"),
    ("perm2.cert", "ninputs 4\ng0 = input 0\ng1 = input 2\ng2 = mul g0 g1\ng3 = add g0 g2\ng4 = sub g2 g3\noutput g4\n", "e8a3e0312e2fdd0c"),
    ("perm2.cert", "ninputs 4\ng0 = input 0\ng1 = const 1\ng2 = mul g0 g1\ng3 = sub g0 g2\ng4 = sub g2 g3\noutput g4\n", "41bca1b7d2112197"),
    ("perm2.cert", "ninputs 4\ng0 = input 1\ng1 = input 2\ng2 = mul g0 g1\ng3 = sub g2 g1\ng4 = sub g3 g2\noutput g4\n", "e8a3e0312e2fdd0c"),
    ("perm2.cert", "ninputs 4\ng0 = input 1\ng1 = const 1\ng2 = mul g0 g1\ng3 = mul g1 g2\ng4 = sub g1 g3\noutput g4\n", "41bca1b7d2112197"),
    ("perm2.cert", "ninputs 4\ng0 = input 2\ng1 = input 3\ng2 = mul g1 g1\ng3 = mul g0 g2\ng4 = sub g0 g3\noutput g4\n", "e8a3e0312e2fdd0c"),
    ("perm2.cert", "ninputs 4\ng0 = input 2\ng1 = sub g0 g0\ng2 = add g0 g1\ng3 = add g1 g2\ng4 = add g2 g3\noutput g4\n", "e8a3e0312e2fdd0c"),
    ("perm2.cert", "ninputs 4\ng0 = input 3\ng1 = const 1\ng2 = add g0 g1\ng3 = mul g0 g0\ng4 = mul g2 g3\noutput g4\n", "e8a3e0312e2fdd0c"),
    ("perm2.cert", "ninputs 4\ng0 = const -1\ng1 = const 0\ng2 = sub g0 g0\ng3 = sub g0 g1\ng4 = sub g3 g2\noutput g4\n", "e8a3e0312e2fdd0c"),
    ("perm2.cert", "ninputs 4\ng0 = const -1\ng1 = mul g0 g0\ng2 = sub g1 g0\ng3 = add g1 g2\ng4 = sub g3 g2\noutput g4\n", "41bca1b7d2112197"),
    ("perm2.cert", "ninputs 4\ng0 = const 0\ng1 = mul g0 g0\ng2 = sub g1 g1\ng3 = sub g2 g0\noutput g3\n", "e8a3e0312e2fdd0c"),
    ("efun2x2.cert", "ninputs 8\ng0 = input 0\ng1 = input 5\ng2 = mul g0 g1\noutput g2\n", "eb5cd7cc0faaa026"),
    ("efun2x2.cert", "ninputs 8\ng0 = input 2\ng1 = input 7\ng2 = sub g0 g1\noutput g2\n", "eb5cd7cc0faaa026"),
    ("efun2x2.cert", "ninputs 8\ng0 = const 1\noutput g0\n", "1c62ff2408159efd"),
    ("efun2x2.cert", "ninputs 8\ng0 = input 3\ng1 = mul g0 g0\ng2 = mul g1 g0\noutput g2\n", "eb5cd7cc0faaa026"),
)
