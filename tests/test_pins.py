"""Pins of the simulated traces and of dual_loop's results: a change that
moves any simulated float, or any float of the standalone dual loop, shows
here."""

import hashlib

from netnum import abstraction as ab
from netnum import cli
from netnum import decompose as dc
from netnum import instantiate as it
from netnum import netsim as ns
from netnum import solve as sv
from netnum.reference import TOY_SESSIONS_OF_LINK

from conftest import TOY_CONST, csv_text
from test_cli import PROBLEMS, SCENARIOS

# sha256 of trace.csv for every shipped problem x scenario x scheme, at
# each scenario file's own seed: 150 s runs, and 400 s on s2_drain.cfg,
# whose joint runs of jocp_log and jocp_log_powercap drain session 1
TRACE_MATRIX = {
    "jocp.ncp fairness.cfg joint":
        "fc5fddc640418e5de85819e03a3eb27dbbcdaaa49afd1b79d23cdb019723efcc",
    "jocp.ncp fairness.cfg rate-only":
        "ec31910b7f84cc43a1486faa6237b31e0cd94f17e70376357084c3b415f9648b",
    "jocp.ncp fairness.cfg power-only":
        "ea2a77ea27b842922abc29a2de7803559981d2a48fa2f6a5af2a96d711575d5d",
    "jocp.ncp fairness.cfg no-control":
        "0b285d76fd8684fcccaf6ee65f3f55df340f7ff4229bda6b67a232095872275a",
    "jocp.ncp s1.cfg joint":
        "bc5bdf6dea4ab1ab8b803bf89d578089ce54b7a75dcfd3353d4593c313c29eb3",
    "jocp.ncp s1.cfg rate-only":
        "0087771c89861d8f26214fb5ed030f76f7aac39968579908b96bedc98211a3df",
    "jocp.ncp s1.cfg power-only":
        "6f60202a01e97368e6a1822fa17abbc3cbe62a80eb1504b43b4088d96da6e456",
    "jocp.ncp s1.cfg no-control":
        "6f60202a01e97368e6a1822fa17abbc3cbe62a80eb1504b43b4088d96da6e456",
    "jocp.ncp s2.cfg joint":
        "cc3018b9cad4e24ce14bc255ef1df4ca69fd756d0e0f85210972113ad30c3c3f",
    "jocp.ncp s2.cfg rate-only":
        "0ade26d735f577f76602029504cfd31451bb1781b64c10214998b62f1624ed61",
    "jocp.ncp s2.cfg power-only":
        "70092974747dfe00dc5a35526b97928366490134c8b2154a114eeba0399210c5",
    "jocp.ncp s2.cfg no-control":
        "7697dc27a5704d555b03d2103bb3ae2e5fb25a92ab89238b8193e48e64144d54",
    "jocp.ncp s2_drain.cfg joint":
        "1e33d14cdbeae01a338ffd60c3baee5180bba63bbacfef3fc6608a058d42d18d",
    "jocp.ncp s2_drain.cfg rate-only":
        "73c72489e2a1e59f03578af8ddaa4428148e7d4c070a6c2003a9f3a89f6b0ceb",
    "jocp.ncp s2_drain.cfg power-only":
        "83a2c422bfe939dbd51a66b81cf31f3638c15c7ffbc1f127690f5c82e61d9e87",
    "jocp.ncp s2_drain.cfg no-control":
        "574a46cee80fd35a62f86c06b2097e77aa9395eb64bbeb67a02a21cb38d43047",
    "jocp.ncp s3.cfg joint":
        "485ac1daa571b7cf6a7cd56e73fe5b29e4b3e6c0142e2f808d994533181b38f3",
    "jocp.ncp s3.cfg rate-only":
        "68ebb767b4d6bc9fd4423bd505dd754e4311b60656bdb98191bc5de1cfdb50e9",
    "jocp.ncp s3.cfg power-only":
        "a871f6cc162a8f64141452992fb2aef3c8ff2684bdeb8d109a8cb4f50bc111a6",
    "jocp.ncp s3.cfg no-control":
        "2e92f695bf07bc866dfb08c36ea6aeff7d19bfc45909f43d455766586db9847a",
    "jocp.ncp s4.cfg joint":
        "523bd1c49b16f799354aff7e915d255ca8f0d3942baaf82f460b553c31108a6a",
    "jocp.ncp s4.cfg rate-only":
        "5aae306d32aaa922168224f3387f49245c97ff4f1dff564737e5829130798f78",
    "jocp.ncp s4.cfg power-only":
        "bd46bbda4f0a8fee1be7a03c94fbd5a8ebc6e6fd6f1b60370a29d3cbb2caa9bc",
    "jocp.ncp s4.cfg no-control":
        "fb4a36dc63fc555b0de565b3cd001d5ea9245472d29738f2f36d3ab13fe44373",
    "jocp.ncp s5.cfg joint":
        "fd1da84013683829bb92c48d634fb4bed720739cd3564aeed1f2b17cc1baa4d9",
    "jocp.ncp s5.cfg rate-only":
        "67d55fbfdfcb657596e2af9370930a3048b2e6df6219adc688283f5682e5d30a",
    "jocp.ncp s5.cfg power-only":
        "c01e4d1ad5ccfc21af840eb96728757beb1fe1de9ffbffbb3d825541e84fee97",
    "jocp.ncp s5.cfg no-control":
        "d0b5b36d3b345897ea678cf874c754a5fbe61f1adb58f5b8274166a175ac7b6f",
    "jocp_log.ncp fairness.cfg joint":
        "c126d4a732c550eaedb76b2bb46d1133166ce045508f63ee918cbb05f3cfa357",
    "jocp_log.ncp fairness.cfg rate-only":
        "0b739b5604f5f8b03acba22cf7809b8e88df30a70164c106235bb3bd18daf3de",
    "jocp_log.ncp fairness.cfg power-only":
        "95fdd7297299a74deb0109e1cf9b0aa4c117db538886b7895c1221e03ac1b0fe",
    "jocp_log.ncp fairness.cfg no-control":
        "252ccf5b756eac257384daec94ea5377019b753087e05eb42c2b92fdae18b188",
    "jocp_log.ncp s1.cfg joint":
        "6e6137473fa1687ee2ecd4814b0853e15bec4f89af8cc2e1f4269c89b13a7547",
    "jocp_log.ncp s1.cfg rate-only":
        "403dc708056232ec618f996762d64250b6aa16dde749d68a741efb90c6ce2f73",
    "jocp_log.ncp s1.cfg power-only":
        "ba116502592d796df6271ce90e4f09d0f263f331068b97c37ac9a1fd180da92d",
    "jocp_log.ncp s1.cfg no-control":
        "ba116502592d796df6271ce90e4f09d0f263f331068b97c37ac9a1fd180da92d",
    "jocp_log.ncp s2.cfg joint":
        "121ecfd1dd56d5890251794b0d11bd159304edde1f56602bd2adc6cfb239711c",
    "jocp_log.ncp s2.cfg rate-only":
        "caa06b4ed23a5dd5a8e03ecc673a4bf2da3a8998ef98ce3086bb6620d165a2a4",
    "jocp_log.ncp s2.cfg power-only":
        "6d5c5d4ea5afa9b4884f6d2a35abf99c5442259136188bdacd929ce7ec98083a",
    "jocp_log.ncp s2.cfg no-control":
        "875b840c5729a3bf1ee720033f5740e165ee954a77c912cdad975f88a0df6345",
    "jocp_log.ncp s2_drain.cfg joint":
        "1d66c2a0cc41214b549da971af8ecbfc88b362cac2fbfc38509efc349e926662",
    "jocp_log.ncp s2_drain.cfg rate-only":
        "471f94acd403e8a927ef5494d1940e7600d83f0c5888af02219a6c6d88b5a8c1",
    "jocp_log.ncp s2_drain.cfg power-only":
        "8934ecaa27c507ebdc33834b9b47ac7453158c5783b76d87d7dbc626575c28ca",
    "jocp_log.ncp s2_drain.cfg no-control":
        "f2b2b5d23bafe1a85711de080b0b3085ea8fe7989563035de37f64f7725b6dd1",
    "jocp_log.ncp s3.cfg joint":
        "b1cb298ed335023d23bd6b5e4da083dc8378a982694759b5efb509e80c3e0c9f",
    "jocp_log.ncp s3.cfg rate-only":
        "f2f5a4d78021fe153640ba0f088ea9907f4ec04ef5292f5537ffd98919fb2441",
    "jocp_log.ncp s3.cfg power-only":
        "2fec1485d6a9c2a279e6f91f5f1c8b6987284d96a46f7687473b728a5ba7dc21",
    "jocp_log.ncp s3.cfg no-control":
        "ddd88d1d2331d8651a26928dbd693f3a83832031451a411c00814056b3a91057",
    "jocp_log.ncp s4.cfg joint":
        "90d4b1bb0f23ee3aa36d4e8ce8985964be8e6aca83476ee5563c42344cb41067",
    "jocp_log.ncp s4.cfg rate-only":
        "c8c8a646117ad90b16c449bdd855c4406fef8033560a1eb8f1c0b80fc10cc3d9",
    "jocp_log.ncp s4.cfg power-only":
        "ab00535453512b9f2f09a95930a6e3f7e1a40a8c71b510638635c2fa959234d4",
    "jocp_log.ncp s4.cfg no-control":
        "06a766a3a97adb320a019c97487c622db5142b30322376510fd5871e57c3b186",
    "jocp_log.ncp s5.cfg joint":
        "6c8f618fc88992cb12ca18832bad0988aa42a50a58ec56975de904cbfeddbe62",
    "jocp_log.ncp s5.cfg rate-only":
        "d6d171944ad1335abedb170a57996bd9a3e11dcb07ac2ba8e338fb86f97e0ba2",
    "jocp_log.ncp s5.cfg power-only":
        "70e10f850f42a22c12480e8f0880d8e8312e83db30f9103168e35656b2de53c3",
    "jocp_log.ncp s5.cfg no-control":
        "d72415d2060e48ea9a108b28e758b217e6e0e0ce4f11a9df9959bc499d7ceabe",
    "jocp_log_powercap.ncp fairness.cfg joint":
        "54a2234ead5416fa3f73a34903968b674f24b1529e5d8caac6a379df51671c4b",
    "jocp_log_powercap.ncp fairness.cfg rate-only":
        "7bd864308b1e5a373e23cfa8b8c34f757aa97ac8b47c0d6966efea3fa64569b3",
    "jocp_log_powercap.ncp fairness.cfg power-only":
        "cb946b77351037ff886364c7ba81ea53fd9acaad91bafc8b412ba2787e8057f0",
    "jocp_log_powercap.ncp fairness.cfg no-control":
        "b2f7052741494d6e2df9a9be17f629976a7c4b0d4d110634218b80d433355b3e",
    "jocp_log_powercap.ncp s1.cfg joint":
        "9259cfe28d38aa4958ef4eb5f78daa108ee6aee69847fe53192d0af27078031d",
    "jocp_log_powercap.ncp s1.cfg rate-only":
        "edd82fed9d08d948be14d383595838c05ced9ed647c661b2158e9ad89d42821a",
    "jocp_log_powercap.ncp s1.cfg power-only":
        "e292fef23cad365402d0aa8292befe4b2ac9bbe1fcccd60a368ee73e49104bc3",
    "jocp_log_powercap.ncp s1.cfg no-control":
        "d4c91e3cac163fc7187908eb46c8dd675aa27c5304448872db92c886a9ab0e54",
    "jocp_log_powercap.ncp s2.cfg joint":
        "f377db2091eb4821f37ee4ba317d0d327a8706db24ee07fff1d09c19470139bb",
    "jocp_log_powercap.ncp s2.cfg rate-only":
        "6e127bf358543abf4526fb63106b971174df14a296c17c7df795ee908a12b428",
    "jocp_log_powercap.ncp s2.cfg power-only":
        "a6fa677e341755d3ea8246877a6374ff734188cf38223c9d6480445074eb57cb",
    "jocp_log_powercap.ncp s2.cfg no-control":
        "e06b4f2e759bd2e4c2865a3467b102e77afd85e1dbd3400f676fc77fcb227381",
    "jocp_log_powercap.ncp s2_drain.cfg joint":
        "953c7bac8c9b1f8a73e71cbefec69b81626cbe663c8cb5db561791a9fa2d58b2",
    "jocp_log_powercap.ncp s2_drain.cfg rate-only":
        "8fd3e4b69da1b1e4ccdeda0cdc6da23e270c61030c0dc52492c6218ffa708482",
    "jocp_log_powercap.ncp s2_drain.cfg power-only":
        "00be1c56917aaae00237929d45e183bf91d50fcaa27c44a1927cd1d61999ae33",
    "jocp_log_powercap.ncp s2_drain.cfg no-control":
        "60be921ffcaa28e8a2333c525ed163a4ccd5032143e0c24f6545ee34322970f2",
    "jocp_log_powercap.ncp s3.cfg joint":
        "a17a16b210161913f8620cf6bd0f021fe80033dd4052626576a1ac5698212f58",
    "jocp_log_powercap.ncp s3.cfg rate-only":
        "05e081470e73c7cd99d4ff418c3a76129632445c6b1fd02174937ce5a336e4a5",
    "jocp_log_powercap.ncp s3.cfg power-only":
        "577ae6a7a31735938a8c892bec1ec38f566937c60de03cbd5c45e31a76d9a76b",
    "jocp_log_powercap.ncp s3.cfg no-control":
        "9130e6db7d406ede0aebd18673d5c5ebe36a8ff471a819ec706ff7d554e0af5b",
    "jocp_log_powercap.ncp s4.cfg joint":
        "2837c9875e20b9c6407fe628aad556a1614b9f1dd765ce6725f00c868bfb5aa7",
    "jocp_log_powercap.ncp s4.cfg rate-only":
        "7755ef0e63978900197f0876cebe526176618b533d4908b1944e54fe09172318",
    "jocp_log_powercap.ncp s4.cfg power-only":
        "3d8a16aba6cd62f0417ad76ee21f5ff48a50d7b85adedf7f27cef5bb8fcda2c8",
    "jocp_log_powercap.ncp s4.cfg no-control":
        "a81632d15a95d1101e08013458f179b2b159264ba8320378449aac002918e724",
    "jocp_log_powercap.ncp s5.cfg joint":
        "d4614b4af18ebba1eadc8bd2f3515c8012f8da8aba146db9abb90ac4a704876a",
    "jocp_log_powercap.ncp s5.cfg rate-only":
        "00ca90ecf66426b86728187760ef01fd4ae892221863b65a880dd6465e02fb56",
    "jocp_log_powercap.ncp s5.cfg power-only":
        "2289c62c39f229047f1d7887916be67fd4de1f8d81de3dedeb1e253870d64f60",
    "jocp_log_powercap.ncp s5.cfg no-control":
        "911d099bada4a044eebee427e31c608d22f792e4598a16b20a163dae25950bd6",
    "powermin.ncp fairness.cfg joint":
        "4a084e62add5f7bf8f7101ec70709f79af2fcefddd1af5354321d03c90b93902",
    "powermin.ncp fairness.cfg rate-only":
        "d581784148a1df4e62271d1cc57cef87ea45d5b41bbb536e220fbd0f8af5faf2",
    "powermin.ncp fairness.cfg power-only":
        "e39e2df2d882bf68fb06d0f14d4f8073aea62e3787d9f96af950a90d426411a7",
    "powermin.ncp fairness.cfg no-control":
        "aec30c3cd1bb9b169a30ace397968828690c1990bdac7ae735aff91a8e802fc1",
    "powermin.ncp s1.cfg joint":
        "ddb8134c6d1c85c538e9958d2a8c63f32afb2f4025ab43eae6050be699ddaaf3",
    "powermin.ncp s1.cfg rate-only":
        "f028ad7c3bc8fac85c2d7c7924cc192815fcbeb6abf78f4c776775e450dc2d89",
    "powermin.ncp s1.cfg power-only":
        "d699cf0e15439e34e52fbf7e343de0c11040a84921ae9a93d44665d90352fc1c",
    "powermin.ncp s1.cfg no-control":
        "f028ad7c3bc8fac85c2d7c7924cc192815fcbeb6abf78f4c776775e450dc2d89",
    "powermin.ncp s2.cfg joint":
        "b1a980dc7334806c0a677d10160321f05ac68cae0e11063aaacf5008203afbcf",
    "powermin.ncp s2.cfg rate-only":
        "84240d438fe3e07192fce40cf4c3923c53f455d3576c9f3d2ae5cdc85ce735e5",
    "powermin.ncp s2.cfg power-only":
        "58bc896ee8cdcdceaa7c551545420288b068d90532ca42d285741afd89b234fe",
    "powermin.ncp s2.cfg no-control":
        "81b59c55db3d6d157944909fd09c22787f529e02eedf99f0b17285687bf95566",
    "powermin.ncp s2_drain.cfg joint":
        "d34601663e02af2dc73e09212f75b35a5871272e315902a503576fee74867ad5",
    "powermin.ncp s2_drain.cfg rate-only":
        "ab5fad3a42932124d104f69439cbda756a8342a1bb65b6026a0a95b7891ce6eb",
    "powermin.ncp s2_drain.cfg power-only":
        "af698ca25249bdf835397d8f1b87a8ff3cc17aa9515618ae09ad1bc73c5f4b76",
    "powermin.ncp s2_drain.cfg no-control":
        "e97a039c421676160f0e06a731b6647ec9301bebad73d4bf063d7d7f295531ae",
    "powermin.ncp s3.cfg joint":
        "8c0c7008e69d9cbace0b43035e031b60b87c00f44892ad879e1cf45ea5804898",
    "powermin.ncp s3.cfg rate-only":
        "2fe068916ff6df7da3f35ad8efce1525ddf6a22a0e4dfd619c6bc17534a4c76a",
    "powermin.ncp s3.cfg power-only":
        "ddd05418fdd6cf89610f343048ef00a54479c10947f4d116ac6454fe7a1c6c06",
    "powermin.ncp s3.cfg no-control":
        "1f8fa6e5b2c1bd4bc65d90e988a5ecdc874073e238fadad6cfec4cbb438c5c90",
    "powermin.ncp s4.cfg joint":
        "946036c7568c9598da66845ae5af1c7b342e9b211dc9174df4054de5189357e6",
    "powermin.ncp s4.cfg rate-only":
        "cd1e20aed18e7ee2465598a1169ec2176df8f0c509bc38a5c9ec248d0c588776",
    "powermin.ncp s4.cfg power-only":
        "15eacabe542d9539777e36f439bdad7de0e0d99063263b3549ea894800dcf61b",
    "powermin.ncp s4.cfg no-control":
        "021e90c1b5e67d7f843f39ffcb9423bbc9509a53dcc81ab5443beda201ce5e89",
    "powermin.ncp s5.cfg joint":
        "8893124ed84a1ab003205bf739eded559ff426f18a699cc0735fb6083c0e7c80",
    "powermin.ncp s5.cfg rate-only":
        "822382a51ea6d829526c521214729ae30d8986e89fd2da85825ecd6344944b27",
    "powermin.ncp s5.cfg power-only":
        "9118bdcb9c2e4c40324eb06e2677c5f7685dabc0349d2edb45aef236eb3065b0",
    "powermin.ncp s5.cfg no-control":
        "3aea1748b65b247d5548fec220f297011eccb16db921238e8d2f278707eebd38",
}


def test_every_stock_trace_is_pinned():
    got = {}
    for problem_file in sorted(PROBLEMS.glob("*.ncp")):
        problem = ab.parse_problem(problem_file.read_text())
        programs, _, _ = cli.build_programs(problem)
        for scenario_file in sorted(SCENARIOS.glob("*.cfg")):
            scn = ns.load_scenario(scenario_file.read_text())
            duration = 400 if scenario_file.name == "s2_drain.cfg" else 150
            for scheme in ns.SCHEMES:
                trace = ns.run(cli.deploy(problem, programs, scn), duration, scheme)
                key = f"{problem_file.name} {scenario_file.name} {scheme}"
                got[key] = hashlib.sha256(csv_text(trace).encode()).hexdigest()
    assert got == TRACE_MATRIX


_INACTIVE = ("var wos_x path=netses.sesrate quant=all,none\n"
             "var wos_y path=netlnk.lnkses.sesrate quant=every,all,none\n"
             "var wos_z path=netlnk.lnkcap quant=every,none\n"
             "utility max sum(wos_x)\n"
             "constraint sum(wos_y) <= wos_z\n"
             "constraint 0 <= wos_x\nconstraint wos_x <= 1\n"
             "decompose cross=dual dist=best_response\n")

# dual_loop's (averaged decisions, duals by registry position, utility)
# as float.hex: criterion 5's run (also test_dual_loop_converges_to_oracle),
# test_dual_loop_inactive_constraint_dual_vanishes, and criterion 5's run
# with a diminishing dual step
_TOY_X = "0x1.0147ae147ae06p-1"
_DIM_X = "0x1.03c19da1a1309p-1"
DUAL_LOOP_PINS = [
    (TOY_CONST, 2000, None, False,
     ({"sesrate_00": _TOY_X, "sesrate_01": _TOY_X, "sesrate_02": _TOY_X},
      ["0x1.fffffffffffffp-2"] * 3, "0x1.81eb851eb8509p+0")),
    (_INACTIVE, 3000, {"lnkcap_00": 1.0, "lnkcap_01": 1.0, "lnkcap_02": 3.0}, False,
     ({"sesrate_00": "0x1.e098ead65b7a2p-9", "sesrate_01": "0x1.0000000000000p+0",
       "sesrate_02": "0x1.0000000000000p+0"},
      ["0x1.1999999999999p-1", "0x1.1999999999999p-1", "0x0.0p+0"],
      "0x1.0078263ab596ep+1")),
    (TOY_CONST, 2000, None, True,
     ({"sesrate_00": _DIM_X, "sesrate_01": _DIM_X, "sesrate_02": _DIM_X},
      ["0x1.fc9961cb3f511p-2"] * 3, "0x1.85a26c7271c8ep+0")),
]


def test_dual_loop_results_are_pinned():
    for source, epochs, params, diminishing, want in DUAL_LOOP_PINS:
        inst, _ = it.instantiate_problem(ab.parse_problem(source), it.InstanceConfig(3, 2, 7),
                                         preset={"lnkses": TOY_SESSIONS_OF_LINK})
        dp = dc.dualize(inst)
        cfg = sv.SolverConfig(step=0.05, dual_step=0.05, boxes={"sesrate": (0.0, 1.0)},
                              diminishing=diminishing)
        res = sv.dual_loop(dp, cfg, epochs=epochs, seed=1, params=params)
        assert ({k: v.hex() for k, v in res.decisions.items()},
                [v.hex() for v in res.duals], res.utility.hex()) == want
