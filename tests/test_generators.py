"""The generators' models, pinned byte for byte.

Each digest is the sha256 of ``to_text()`` for one parameter set, as
the generators produced it when they still wrote CGSL text and parsed
it back.  Building the explicit model directly must not change a byte.
"""

import hashlib

import pytest

from atlstar import bench
from atlstar import cgs

PINNED = [
    ("counter", dict(cap=1, steps=1, agents=1, mode="finite"),
     "b2fe3768b701b577954615c78f8734d1248ddb84336f2d402520a858f02131d1"),
    ("counter", dict(cap=3, steps=2, agents=1, mode="finite"),
     "6b8630cba8e6201d41310fe2a592b5cd17d93f56cf67b3920b02c4cac9af5b55"),
    ("counter", dict(cap=4, steps=5, agents=1, mode="finite"),
     "d2391f5b131f54d97c749414e67f6d3eebfaf03bb06cd00a5ee95f8b9d8d1480"),
    ("counter", dict(cap=1, steps=1, agents=2, mode="finite"),
     "460960f9c79792cdfcd86b9602e7f0cbbe5e67fe9cb35ee489ec9142be8f5a1f"),
    ("counter", dict(cap=3, steps=2, agents=2, mode="finite"),
     "94d1393dc5f5357840d64ceb5c16c055d810176ac486cb08e77844b256755da7"),
    ("counter", dict(cap=4, steps=5, agents=2, mode="finite"),
     "9ad53f236423b76e746db6bef7643ce00361acf0c740b7192eb7c3d41ecddb8a"),
    ("counter", dict(cap=1, steps=1, agents=3, mode="finite"),
     "98c4fcfa9f550572e505ce00985ee4c09b36337292939c517b92116c119176ee"),
    ("counter", dict(cap=3, steps=2, agents=3, mode="finite"),
     "f62494c85b86736685e409d357e4035f126d75e99d641bc4f510565eb95b841f"),
    ("counter", dict(cap=4, steps=5, agents=3, mode="finite"),
     "c3f09b0dd0c07d01c1dec1db212b76e474b8777c84043ac0eb20f3ffab4deb42"),
    ("counter", dict(cap=1, steps=1, agents=1, mode="infinite"),
     "d539ca9adacac931d0383dba48e6ba0a61dac029eb1d4e070b11c2f24fe03381"),
    ("counter", dict(cap=3, steps=2, agents=1, mode="infinite"),
     "5160255a2a679225182db134e54ba58a5ba5a036965b20750296cba40dbc1667"),
    ("counter", dict(cap=4, steps=5, agents=1, mode="infinite"),
     "78ae1c4785883b46e9795b8c056cc6e4699c8b1008d2c92e6989bb38d434ef5a"),
    ("counter", dict(cap=1, steps=1, agents=2, mode="infinite"),
     "942e09fe6b725665ba686bdb8ed142fb573ad23077392d91aab673dee7b3055a"),
    ("counter", dict(cap=3, steps=2, agents=2, mode="infinite"),
     "07e695f1b90a4f96aa32db66ebf8625f321b89b2fe5612bfe85e9e0faf9f54a6"),
    ("counter", dict(cap=4, steps=5, agents=2, mode="infinite"),
     "cc6e751c7a275a9db7662912af5200f8478330e95b4f8e288b3f081ddd611d71"),
    ("counter", dict(cap=1, steps=1, agents=3, mode="infinite"),
     "2d7bd3fc3461396510cfeb76e777d520ac8c55da1c78ad58730f61d942af5024"),
    ("counter", dict(cap=3, steps=2, agents=3, mode="infinite"),
     "650c0b04fb91d420f90165e83509c8fc5d11a0cc845252ca76bf3212e77f456a"),
    ("counter", dict(cap=4, steps=5, agents=3, mode="infinite"),
     "9fc6beffa5375b656f645fb777ef732a6af9051e647d42563ecfb6f3c6c1d4d5"),
    ("scheduler", dict(processes=2),
     "ae2c4c9b13d34688e59fe40d87edd9726e61fa3690c02c47918b29509f15416a"),
    ("scheduler", dict(processes=3),
     "d904d02be377c0b8423fc853cfcf329e3660ad6031bb969adee881f9c8fa8b7a"),
    ("scheduler", dict(processes=4),
     "af80c3e13ca4cc3c5061b92fedd887488c8c6069a502d11268f663b728603955"),
    ("cyber", dict(scenario="confidentiality", horizon=None, budget=1,
                   heuristic="conservative"),
     "57efe6e025945db6a6535b420e53ed3d6b55869409159a3903b7f010607a8bb4"),
    ("cyber", dict(scenario="confidentiality", horizon=None, budget=1,
                   heuristic="aggressive"),
     "57efe6e025945db6a6535b420e53ed3d6b55869409159a3903b7f010607a8bb4"),
    ("cyber", dict(scenario="confidentiality", horizon=None, budget=1,
                   heuristic="proportional"),
     "57efe6e025945db6a6535b420e53ed3d6b55869409159a3903b7f010607a8bb4"),
    ("cyber", dict(scenario="confidentiality", horizon=None, budget=1,
                   heuristic="diversity"),
     "eee4cd32ab98910988c25b3098d288453b6b07f48ce02c560f60af3274e83c77"),
    ("cyber", dict(scenario="confidentiality", horizon=2, budget=1,
                   heuristic="conservative"),
     "bf45b094ec5b0101a1c4a79ac48b13fda896c03b4dd057397b31e278d3714166"),
    ("cyber", dict(scenario="confidentiality", horizon=2, budget=1,
                   heuristic="aggressive"),
     "bf45b094ec5b0101a1c4a79ac48b13fda896c03b4dd057397b31e278d3714166"),
    ("cyber", dict(scenario="confidentiality", horizon=2, budget=1,
                   heuristic="proportional"),
     "bf45b094ec5b0101a1c4a79ac48b13fda896c03b4dd057397b31e278d3714166"),
    ("cyber", dict(scenario="confidentiality", horizon=2, budget=1,
                   heuristic="diversity"),
     "358ae2e305df90a05d7968eca76556e301d7be54f5aaaaf587c5150d48b61e3e"),
    ("cyber", dict(scenario="integrity", horizon=None, budget=1,
                   heuristic="conservative"),
     "079b0acd7a32c272d7b638044b0ca8b1969de9aaa7fa15b0b7e3e0c17ef5511a"),
    ("cyber", dict(scenario="integrity", horizon=None, budget=1,
                   heuristic="aggressive"),
     "66b940865a34849636f97ef45518a4043ec542a601f0642dec7ff13cf5282bcd"),
    ("cyber", dict(scenario="integrity", horizon=None, budget=1,
                   heuristic="proportional"),
     "079b0acd7a32c272d7b638044b0ca8b1969de9aaa7fa15b0b7e3e0c17ef5511a"),
    ("cyber", dict(scenario="integrity", horizon=None, budget=1,
                   heuristic="diversity"),
     "c40195a9055747b0b88812598ed0f62f7fb473c67cf25e0b02e72ece7ff413a2"),
    ("cyber", dict(scenario="integrity", horizon=2, budget=1,
                   heuristic="conservative"),
     "bd78506e58a77e77f49ea9bc1aecfa9209c95811137cdfdc9905a12f13abfb30"),
    ("cyber", dict(scenario="integrity", horizon=2, budget=1,
                   heuristic="aggressive"),
     "6d042a808e2e2fe9cf70152120957d3434955eaf69ff7f0e9668283ba80a22e7"),
    ("cyber", dict(scenario="integrity", horizon=2, budget=1,
                   heuristic="proportional"),
     "bd78506e58a77e77f49ea9bc1aecfa9209c95811137cdfdc9905a12f13abfb30"),
    ("cyber", dict(scenario="integrity", horizon=2, budget=1,
                   heuristic="diversity"),
     "79d895ba1288e2a5317c70f0053e35fcfed95ab74a069b9a9977525a46f9d456"),
    ("cyber", dict(scenario="availability", horizon=None, budget=1,
                   heuristic="conservative"),
     "6b80af0642df03105ec23354585f27a8e15011d92b4989e250ed62dd984c44ec"),
    ("cyber", dict(scenario="availability", horizon=None, budget=1,
                   heuristic="aggressive"),
     "dfdc8915221597937ce1bbe01d8addb8fb97a9b99d9a5ae0a789868f61529aba"),
    ("cyber", dict(scenario="availability", horizon=None, budget=1,
                   heuristic="proportional"),
     "6b80af0642df03105ec23354585f27a8e15011d92b4989e250ed62dd984c44ec"),
    ("cyber", dict(scenario="availability", horizon=None, budget=1,
                   heuristic="diversity"),
     "c131bb2c46a028451ca4e8ed793a47038da58a1bcf3eb541473f99058a7667b8"),
    ("cyber", dict(scenario="availability", horizon=2, budget=1,
                   heuristic="conservative"),
     "57ec39a887fcb7d162cb34d85ef75ccd2c0f073a15aa761e684c1d060c97f0f9"),
    ("cyber", dict(scenario="availability", horizon=2, budget=1,
                   heuristic="aggressive"),
     "fcc1aadf0f195221a9bcf85c9fa42fe2bfe68a7deba88ea96877a73cafe7966b"),
    ("cyber", dict(scenario="availability", horizon=2, budget=1,
                   heuristic="proportional"),
     "57ec39a887fcb7d162cb34d85ef75ccd2c0f073a15aa761e684c1d060c97f0f9"),
    ("cyber", dict(scenario="availability", horizon=2, budget=1,
                   heuristic="diversity"),
     "a444d58a74f3d9c19345b6f7f9caa9df68939b5abd948508e66f8c9f1c4b5a8d"),
    ("cyber", dict(scenario="confidentiality", horizon=None, budget=0,
                   servers=2),
     "2af28437a77acae6f9b18abcbcd9b57b588f425cecdeaa1f879909473b0ec227"),
    ("cyber", dict(scenario="integrity", horizon=3, budget=2,
                   heuristic="aggressive", weights=(3, 3, 1, 1, 1, 1), t1=2,
                   t2=4, critical=(3,)),
     "171f68085d9bcd7f853a1077f0afa8ddeabc96aa9c4a738e2ae931d5c9d49d40"),
]


def _generate(family, params):
    cls, gen = bench.GENERATORS[family]
    return gen(cls(**params))


@pytest.mark.parametrize("family,params,digest", PINNED)
def test_generated_text_is_pinned(family, params, digest):
    g = _generate(family, params)
    assert hashlib.sha256(g.to_text().encode()).hexdigest() == digest


@pytest.mark.parametrize("family,params", [
    ("counter", dict(cap=3, steps=2, agents=3)),
    ("counter", dict(cap=4, agents=2, mode="infinite")),
    ("scheduler", dict(processes=3)),
    ("cyber", dict(scenario="integrity", horizon=2, budget=1)),
    ("cyber", dict(scenario="availability", horizon=None, budget=1,
                   heuristic="diversity")),
])
def test_parser_reads_back_the_generated_model(family, params):
    g = _generate(family, params)
    assert cgs.parse_model(g.to_text()) == g
