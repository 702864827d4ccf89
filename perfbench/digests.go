package main

// pinnedSeed is the seed `countq run` uses by default. At that seed every
// run checks each rendered table against its pinned SHA-256 digest; at any
// other seed it checks that every pass renders the same tables.
const pinnedSeed = 1

// pinnedDigests are the SHA-256 digests of the full-size tables
// (core.Table.Render) at pinnedSeed.
var pinnedDigests = map[string]string{
	"E1":  "298f7c3e83d958223d0b0842266ed471cfda353fdb1b2936b2f1ca8d9cf1990d",
	"E2":  "aaf70ed5b912ee6f2824a37fc8ef74a6fae46844c7577aec0ed4fba7499c8027",
	"E3":  "80aaa0cc10e8b6c618f4b55fbb5468ed68f1a0dec3739d288c87c5522d8dcd71",
	"E4":  "2f690dcccae942c910488b486e72fee62b80fe1f0b5ba6f85063e8d9a5feffee",
	"E5":  "30a76ed746d8aa214a93e0b1e2b5d8a4e0f0dc7efb75bd8f924396e889e52ff3",
	"E6":  "228b46b6dee851e4065789d9587300721598fca72a3dca9197357be9a3ce8d7f",
	"E7":  "4c4bceb31ab7249d9d51f36956eb54bcc8ceade68763bc626034f915d19baf50",
	"E8":  "d3d2397b2f8f142599575153e330099fa82fb8d53b0bcccc6a645947ec58e534",
	"E9":  "b6aeee629d0eaca15e39a49517eb325ea7af523b1f89410fca313741e85d37cb",
	"E10": "629df25fec0a19aeab7d2ca0d7a94378388fb2c35e9c2cc053efa3df8b1a57d6",
	"E12": "ae7a2807217d5a9e3cb9db8d24c835ceae91530536e7cdd212d0f87ff0f39ca5",
	"E13": "fc46a3030fbaf87b05c11cdf91ae6ea559da703e67493188edfe92eac8748ed9",
	"E14": "833310f9185fe364ed5570a91c148d5f185ac1c1ef7180166046da1f4710b408",
	"E15": "e1371c669c3eb14146b93e2fa18965af285026d13c8a600da02e9dc00fedbfeb",
	"E16": "90f41670d6e0802cf329b94eb2ef7746721f3252fe205714bf7f5e70ff2412fa",
}
