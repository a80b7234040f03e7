#include <limits.h>
#include <stdio.h>

int main(void) {
	long long n = LLONG_MIN;
	--n;
	printf("%lld\n", n);
	return 0;
}
