from hypothesis import settings

# A deeper run of the property tests: pytest --hypothesis-profile=ci
settings.register_profile("ci", max_examples=500)
