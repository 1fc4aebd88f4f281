import io

import pytest

from netnum import abstraction, instantiate
from netnum.reference import REFERENCE_SESSIONS_OF_LINK, TOY_SESSIONS_OF_LINK

JOCP_RATE = """
network adhoc
protocol physical cdma
protocol transport tcp_vegas
var wos_x path=netses.sesrate quant=all,none
var wos_y path=netlnk.lnkses.sesrate quant=every,all,none
var wos_z path=netlnk.lnkcap quant=every,none
utility max sum(wos_x)
constraint sum(wos_y) <= wos_z
decompose cross=dual dist=dpl
"""

JOCP_LOG = JOCP_RATE.replace("sum(wos_x)", "sum(log(wos_x))")

TOY_CONST = """
var wos_x path=netses.sesrate quant=all,none
var wos_y path=netlnk.lnkses.sesrate quant=every,all,none
utility max sum(wos_x)
constraint sum(wos_y) <= 1
constraint 0 <= wos_x
constraint wos_x <= 1
decompose cross=dual dist=best_response
"""


def csv_text(trace):
    """The CSV that trace.to_csv writes, as one string."""
    buf = io.StringIO()
    trace.to_csv(buf)
    return buf.getvalue()


@pytest.fixture(scope="session")
def jocp_problem():
    return abstraction.parse_problem(JOCP_RATE)


@pytest.fixture(scope="session")
def toy_inst(jocp_problem):
    cfg = instantiate.InstanceConfig(n_glb=3, n_lcl=2, seed=7)
    return instantiate.instantiate_problem(
        jocp_problem, cfg, preset={"lnkses": TOY_SESSIONS_OF_LINK})


@pytest.fixture(scope="session")
def jocp_inst(jocp_problem):
    cfg = instantiate.InstanceConfig()
    return instantiate.instantiate_problem(
        jocp_problem, cfg, preset={"lnkses": REFERENCE_SESSIONS_OF_LINK})
