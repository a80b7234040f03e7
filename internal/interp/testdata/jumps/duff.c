#include <stdio.h>
int main(void) {
	int count = 5, n = (count + 3) / 4, k = 0;
	switch (count % 4) {
	case 0: do { k++;
	case 3:      k++;
	case 2:      k++;
	case 1:      k++;
	        } while (--n > 0);
	}
	printf("%d\n", k);
	return k;
}
